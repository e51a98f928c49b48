"""``repro.parallel`` -- sharded multi-process execution for the pipeline.

The subsystem sits between spec resolution and execution:

* :mod:`repro.parallel.plan` -- resolves experiments into a deduplicated
  graph of :class:`~repro.parallel.plan.CellTask` (sibling experiments that
  share cells compute each cell exactly once per run);
* :mod:`repro.parallel.sharding` -- decomposition of a cell over victim
  examples; attacks draw per-example ``np.random.SeedSequence`` streams
  keyed by global victim index, so ``--jobs N`` *and* any shard size are
  bit-for-bit ``--jobs 1``;
* :mod:`repro.parallel.engine` -- the one executor: runs the cells' shards,
  and the zoo units they need, from one ready queue, in-process at
  ``jobs=1`` or on one process pool (per-process worker runners and
  warm-ups) at ``jobs > 1``, and merges them;
* :mod:`repro.parallel.locks` -- advisory file locks and atomic tmp+rename
  writes that make the cell cache and the zoo ``.npz`` cache safe under
  concurrent workers and concurrent CLI invocations;
* :mod:`repro.parallel.telemetry` -- per-run counters and the per-cell
  progress events the CLI surfaces.

Entry point: ``Runner(jobs=N)`` / ``python -m repro run <experiment> --jobs N``
(the engine itself is an implementation detail behind the runner).

This package ``__init__`` only imports the stdlib-level pieces (locks,
telemetry); everything touching :mod:`repro.pipeline` -- sharding, plan,
engine -- is exposed lazily, because the pipeline (and the zoo it trains)
imports the lock primitives from here and the dependency must stay one-way at
import time.
"""

from repro.parallel.locks import (
    FileLock,
    LockUnavailable,
    atomic_path,
    atomic_write_json,
    atomic_write_text,
)
from repro.parallel.telemetry import CellEvent, RunTelemetry

__all__ = [
    "FileLock",
    "LockUnavailable",
    "atomic_path",
    "atomic_write_json",
    "atomic_write_text",
    "CellEvent",
    "RunTelemetry",
    # lazy (see __getattr__)
    "DEFAULT_SHARD_SIZE",
    "attack_shard_size",
    "cell_seed",
    "cell_seed_sequence",
    "n_shards",
    "resolve_jobs",
    "shard_bounds",
    "ParallelEngine",
    "CellExecutionError",
    "CellTask",
    "CellOutcome",
    "ExperimentPlan",
    "ExecutionPlan",
    "build_plan",
]

_LAZY = {
    "DEFAULT_SHARD_SIZE": "repro.parallel.sharding",
    "attack_shard_size": "repro.parallel.sharding",
    "cell_seed": "repro.parallel.sharding",
    "cell_seed_sequence": "repro.parallel.sharding",
    "n_shards": "repro.parallel.sharding",
    "resolve_jobs": "repro.parallel.sharding",
    "shard_bounds": "repro.parallel.sharding",
    "ParallelEngine": "repro.parallel.engine",
    "CellExecutionError": "repro.parallel.engine",
    "CellTask": "repro.parallel.plan",
    "CellOutcome": "repro.parallel.plan",
    "ExperimentPlan": "repro.parallel.plan",
    "ExecutionPlan": "repro.parallel.plan",
    "build_plan": "repro.parallel.plan",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
