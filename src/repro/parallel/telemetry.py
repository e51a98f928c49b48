"""Per-run execution telemetry for the pipeline.

One :class:`RunTelemetry` instance is created per :meth:`Runner.run` /
:meth:`Runner.run_many` call (counters never accumulate across runs) and is
fed one event per grid cell: cache hit or computed, wall time, shard count.
The CLI renders the stream as progress lines and prints the summary; every
:class:`~repro.pipeline.runner.ExperimentResult` embeds a snapshot under its
``telemetry`` key.  All fields here are observability data -- determinism
guarantees explicitly exclude them.

Kernel and attack-query counters are process-level singletons
(:data:`~repro.arith.kernels.KERNEL_STATS` /
:data:`~repro.attacks.base.QUERY_STATS`).  Every shard and zoo unit of a run
reports its own counter deltas, measured where it ran (a pool worker, or
this process), and :meth:`fold_worker` sums the reports -- so
:meth:`kernel_totals` / :meth:`query_totals` count this run's work, not that
of another run on another thread of the same process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.arith.kernels import KERNEL_STATS
from repro.attacks.base import QUERY_STATS
from repro.nn.native import NATIVE_STATS

#: digest prefix length used everywhere telemetry abbreviates cell digests
#: (progress lines, event dicts, span labels)
DIGEST_WIDTH = 12


def _zeros(counters) -> Dict[str, int]:
    return dict.fromkeys(counters.snapshot(), 0)


def _remote_mark() -> Dict[str, int]:
    # lazy: repro.store imports repro.parallel.locks, so a top-level import
    # here would close an import cycle through this package's __init__
    from repro.store.remote import REMOTE_STATS

    return REMOTE_STATS.snapshot()


@dataclass
class CellEvent:
    """One grid cell's execution record."""

    kind: str
    digest: str
    status: str  # "hit" (artifact reused) or "computed"
    seconds: float = 0.0
    shards: int = 1
    experiment: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "digest": self.digest[:DIGEST_WIDTH],
            "status": self.status,
            "seconds": round(self.seconds, 4),
            "shards": self.shards,
            "experiment": self.experiment,
        }


@dataclass
class RunTelemetry:
    """Counters and per-cell events for one pipeline run."""

    jobs: int = 1
    cells_total: int = 0
    events: List[CellEvent] = field(default_factory=list)
    #: GEMM kernel-engine counter deltas the run's tasks reported, summed
    kernels: Dict[str, int] = field(default_factory=lambda: _zeros(KERNEL_STATS))
    #: classifier call-batch-size counter deltas the run's shards reported,
    #: summed.  They show how well the batched attack engine amortised model
    #: calls -- calls at batch 1 vs batched, mean query batch -- and cover
    #: only calls issued during attack execution (evaluation traffic such as
    #: victim-selection scans is excluded by the counter's scope).
    queries: Dict[str, int] = field(default_factory=lambda: _zeros(QUERY_STATS))
    #: remote artifact-tier counters at run start; :meth:`remote_totals`
    #: reports the delta (all zeros on a local-only run)
    remote_mark: Dict[str, int] = field(default_factory=_remote_mark)
    #: native-kernel counters at run start; :meth:`fold_native` reports a
    #: numpy fallback resolved during the run as ``faults["native_fallbacks"]``
    native_mark: Dict[str, int] = field(default_factory=NATIVE_STATS.snapshot)
    #: pids of every pool worker that reported a task of this run
    worker_pids: List[int] = field(default_factory=list)
    #: ``(unit, training seconds, pool worker pid or None)`` for each unit
    #: the run trained; ``None`` is this process
    zoo_units: List[Tuple[str, float, Optional[int]]] = field(default_factory=list)
    #: ``unit -> (cost, estimated seconds)`` as the engine dispatched it: the
    #: unit's :attr:`~repro.experiments.zoo.TrainingUnit.cost` and the seconds
    #: the run's rate so far predicted (``None`` before a costed unit trained)
    zoo_dispatched: Dict[str, Tuple[Optional[int], Optional[float]]] = field(default_factory=dict)
    #: when the run's first unit started and its last one published
    #: (``perf_counter`` seconds; ``None`` until a unit starts)
    zoo_window: Optional[List[float]] = None
    #: merged-trace summary ({"path", "spans", "pids"}) when the run was
    #: traced (``REPRO_TRACE``); ``None`` otherwise
    trace: Optional[Dict[str, Any]] = None
    #: fault-tolerance event counts for this run: shard retries, timeouts,
    #: worker crashes, pool respawns, serial degradation, lease re-acquires,
    #: manifest-resumed cells, remote-tier degradation (calls that fell
    #: back to local compute / foreign artifacts refused by the trust rules),
    #: zoo units the pool failed to publish (trained in the parent
    #: instead), and native conv/pool kernels this process could not build or
    #: load (the numpy path ran instead).  Zero across the board on a healthy
    #: run.
    faults: Dict[str, int] = field(
        default_factory=lambda: {
            "shard_retries": 0,
            "shard_timeouts": 0,
            "worker_crashes": 0,
            "pool_respawns": 0,
            "degraded_serial": 0,
            "lease_reacquired": 0,
            "cells_resumed": 0,
            "remote_fallbacks": 0,
            "remote_rejects": 0,
            "zoo_fallbacks": 0,
            "native_fallbacks": 0,
        }
    )

    def record(self, event: CellEvent) -> CellEvent:
        self.events.append(event)
        return event

    def count_fault(self, name: str, n: int = 1) -> None:
        """Bump one fault-tolerance counter (e.g. ``shard_retries``)."""
        self.faults[name] = self.faults.get(name, 0) + n

    def fold_native(self) -> None:
        """Count the native-kernel fallbacks this process resolved since the last fold.

        The process resolves its kernels once (before a pool forks, or at the
        first convolution), so pool workers never add fallbacks of their own.
        """
        self.count_fault("native_fallbacks", NATIVE_STATS.delta(self.native_mark)["fallbacks"])
        self.native_mark = NATIVE_STATS.snapshot()

    def zoo_started(self, unit: str, cost: Optional[int], estimate_s: Optional[float]) -> None:
        """Training unit ``unit`` starts (on the pool or in this process)."""
        if self.zoo_window is None:
            self.zoo_window = [perf_counter(), perf_counter()]
        self.zoo_dispatched[unit] = (cost, estimate_s)

    def zoo_published(self) -> None:
        """A training unit has published."""
        if self.zoo_window is not None:
            self.zoo_window[1] = perf_counter()

    def fold_worker(self, report: Dict[str, Any]) -> None:
        """Merge one task's report into the run totals, wherever the task ran.

        A shard reports its kernel and attack-query counter deltas, a unit
        its kernel delta and training seconds; a pool worker adds its pid.
        """
        pid = report.get("pid")
        if pid is not None and pid not in self.worker_pids:
            self.worker_pids.append(int(pid))
        for bucket, totals in (("kernels", self.kernels), ("queries", self.queries)):
            for name, value in report.get(bucket, {}).items():
                totals[name] = totals.get(name, 0) + int(value)
        if report.get("unit_s") is not None:
            self.zoo_units.append((report["unit"], report["unit_s"], pid))

    # ------------------------------------------------------------- counters
    @property
    def cells_done(self) -> int:
        return len(self.events)

    @property
    def cache_hits(self) -> int:
        return sum(1 for e in self.events if e.status == "hit")

    @property
    def cache_misses(self) -> int:
        return sum(1 for e in self.events if e.status == "computed")

    @property
    def compute_seconds(self) -> float:
        return sum(e.seconds for e in self.events if e.status == "computed")

    def kernel_totals(self) -> Dict[str, int]:
        """This run's kernel-engine activity: the sum of its tasks' reports."""
        return dict(self.kernels)

    def query_totals(self) -> Dict[str, int]:
        """This run's attack-scoped classifier calls: the sum of its shards' reports."""
        return dict(self.queries)

    def remote_totals(self) -> Dict[str, int]:
        """This run's remote artifact-tier activity (process-local delta).

        The remote tier lives in the planning process only -- pool workers
        never talk to the peer -- so no worker folding is needed.
        """
        from repro.store.remote import REMOTE_STATS

        return REMOTE_STATS.delta(self.remote_mark)

    def zoo_training(self) -> Dict[str, Any]:
        """Where this run's zoo training ran: pool units, parent units, wall.

        ``unit_s`` holds each trained unit's training seconds, wherever it
        trained, and ``worker`` the pid of the process that trained it (this
        process for the ``--jobs 1`` path and for units the pool failed to
        publish).  ``cost`` and ``estimate_s`` are what the schedule knew of
        each unit when it dispatched it: its cost, and the seconds it
        expected (``None`` before any costed unit had trained), so a cost
        model that misranks units shows next to ``unit_s``.  ``wall_s`` spans
        the run's first unit start to its last unit publication; cells
        computed meanwhile overlap it.
        """
        window = self.zoo_window or [0.0, 0.0]
        seen = {name: self.zoo_dispatched.get(name, (None, None)) for name, _, _ in self.zoo_units}
        return {
            "pool": [name for name, _, pid in self.zoo_units if pid is not None],
            "parent": [name for name, _, pid in self.zoo_units if pid is None],
            "unit_s": {name: round(seconds, 3) for name, seconds, _ in self.zoo_units},
            "cost": {name: cost for name, (cost, _) in seen.items()},
            "estimate_s": {
                name: None if estimate is None else round(estimate, 3)
                for name, (_, estimate) in seen.items()
            },
            "worker": {name: pid or os.getpid() for name, _, pid in self.zoo_units},
            "wall_s": round(window[1] - window[0], 3),
        }

    def progress_line(self, event: Optional[CellEvent] = None) -> str:
        """Human-readable progress for one event against the run totals."""
        event = event or (self.events[-1] if self.events else None)
        total = self.cells_total or self.cells_done
        if event is None:
            return f"  cells: 0/{total}"
        detail = (
            f"{event.seconds:.2f}s" + (f", {event.shards} shards" if event.shards > 1 else "")
            if event.status == "computed"
            else "cached"
        )
        return (
            f"  cell {self.cells_done}/{total} {event.kind} "
            f"{event.digest[:DIGEST_WIDTH]}: {detail}"
        )

    def attack_queries(self) -> Dict[str, Any]:
        """This run's classifier call batch-size histogram (workers folded).

        ``query_calls_batch1`` / ``query_calls_batched`` split prediction
        calls into degenerate single-example calls and genuinely batched
        ones; ``mean_query_batch`` / ``mean_gradient_batch`` are the mean
        samples advanced per model call.
        """
        delta = self.query_totals()
        delta["query_calls_batched"] = delta["query_calls"] - delta["query_calls_batch1"]
        delta["gradient_calls_batched"] = (
            delta["gradient_calls"] - delta["gradient_calls_batch1"]
        )
        delta["mean_query_batch"] = round(
            delta["query_samples"] / delta["query_calls"], 2
        ) if delta["query_calls"] else 0.0
        delta["mean_gradient_batch"] = round(
            delta["gradient_samples"] / delta["gradient_calls"], 2
        ) if delta["gradient_calls"] else 0.0
        return delta

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able summary embedded in experiment results."""
        out = {
            "jobs": self.jobs,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "compute_seconds": round(self.compute_seconds, 4),
            "kernels": self.kernel_totals(),
            "attack_queries": self.attack_queries(),
            "remote": self.remote_totals(),
            "worker_pids": sorted(self.worker_pids),
            "faults": dict(self.faults),
            "zoo": self.zoo_training(),
            "cells": [e.to_dict() for e in self.events],
        }
        if self.trace is not None:
            out["trace"] = dict(self.trace)
        return out
