"""Declarative experiment pipeline.

The pipeline turns the repository's experiments into data:

* :mod:`repro.pipeline.spec` -- :class:`ExperimentSpec` /
  :class:`AttackGridEntry`, the declarative description of one experiment;
* :mod:`repro.pipeline.cells` -- the grid-cell computations, keyed by
  ``(cell_kind, payload)`` and sharded over victim examples for the
  attack-evaluation kinds;
* :mod:`repro.pipeline.runner` -- the :class:`Runner` that resolves specs
  through the unified registries and executes them with per-cell artifact
  caching through the :mod:`repro.parallel` engine, in-process or on its
  process pool (``jobs=N``, bit-for-bit identical to ``jobs=1``);
* :mod:`repro.pipeline.handlers` -- one plan/assemble strategy per
  experiment kind (transferability, blackbox, whitebox, accuracy, ...);
* :mod:`repro.pipeline.catalog` -- the named spec for every paper table and
  figure (what ``python -m repro list`` enumerates), each registered with
  the paper claims its result is checked against.

Quickstart::

    from repro.pipeline import Runner

    result = Runner(fast=True, jobs="auto").run("table04_blackbox_mnist")
    print(result.table)
    result.write("results")          # results/<name>.txt + results/<name>.json
"""

from repro.pipeline.cells import CELL_KINDS, CellKind, CellRequest, get_cell_kind
from repro.pipeline.runner import (
    EXPERIMENT_KINDS,
    EXPERIMENTS,
    NONDETERMINISTIC_RESULT_FIELDS,
    ExperimentResult,
    Runner,
    clear_model_caches,
    get_experiment,
    list_experiments,
)
from repro.pipeline.spec import AttackGridEntry, ExperimentSpec

# importing the handlers and the catalog populates the registries
import repro.pipeline.handlers  # noqa: E402,F401
import repro.pipeline.catalog  # noqa: E402,F401

from repro.pipeline.handlers import KindHandler, register_kind  # noqa: E402

__all__ = [
    "AttackGridEntry",
    "ExperimentSpec",
    "ExperimentResult",
    "Runner",
    "EXPERIMENTS",
    "EXPERIMENT_KINDS",
    "CELL_KINDS",
    "CellKind",
    "CellRequest",
    "KindHandler",
    "NONDETERMINISTIC_RESULT_FIELDS",
    "get_cell_kind",
    "register_kind",
    "list_experiments",
    "get_experiment",
    "clear_model_caches",
]
