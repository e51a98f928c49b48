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
:data:`~repro.attacks.base.QUERY_STATS`): the planning process's activity is
read as a snapshot/delta pair, and with ``jobs > 1`` every pool worker
returns its own counter deltas alongside each shard value, folded in through
:meth:`fold_worker` -- so :meth:`kernel_totals` / :meth:`query_totals` are
truthful whole-run sums regardless of where the work ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.arith.kernels import KERNEL_STATS
from repro.attacks.base import QUERY_STATS
from repro.nn.native import NATIVE_STATS

#: digest prefix length used everywhere telemetry abbreviates cell digests
#: (progress lines, event dicts, span labels)
DIGEST_WIDTH = 12


def _zoo_mark() -> int:
    from repro.experiments.zoo import TRAINED_UNITS  # lazy: zoo imports this package

    return len(TRAINED_UNITS)


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
    #: GEMM kernel-engine counters at run start; :meth:`kernel_totals`
    #: reports the delta plus every folded worker contribution
    kernel_mark: Dict[str, int] = field(default_factory=KERNEL_STATS.snapshot)
    #: classifier call-batch-size counters at run start.  The totals show how
    #: well the batched attack engine amortised model calls -- calls at batch
    #: 1 vs batched, mean query batch -- and cover only calls issued during
    #: attack execution (evaluation traffic such as victim-selection scans is
    #: excluded by the counter's scope).
    query_mark: Dict[str, int] = field(default_factory=QUERY_STATS.snapshot)
    #: remote artifact-tier counters at run start; :meth:`remote_totals`
    #: reports the delta (all zeros on a local-only run)
    remote_mark: Dict[str, int] = field(default_factory=_remote_mark)
    #: native-kernel counters at run start; :meth:`fold_native` reports a
    #: numpy fallback resolved during the run as ``faults["native_fallbacks"]``
    native_mark: Dict[str, int] = field(default_factory=NATIVE_STATS.snapshot)
    #: summed counter deltas returned by pool-worker shards
    worker_kernels: Dict[str, int] = field(default_factory=dict)
    worker_queries: Dict[str, int] = field(default_factory=dict)
    #: pids of every worker that contributed a shard to this run
    worker_pids: List[int] = field(default_factory=list)
    #: zoo units this process had trained when the run began (an index into
    #: :data:`repro.experiments.zoo.TRAINED_UNITS`); :meth:`zoo_training`
    #: reports the units trained since
    zoo_mark: int = field(default_factory=_zoo_mark)
    #: ``(unit, training seconds)`` the engine's training pool trained, and
    #: that phase's wall time
    zoo_pool: List[Tuple[str, float]] = field(default_factory=list)
    zoo_pool_s: float = 0.0
    #: merged-trace summary ({"path", "spans", "pids"}) when the run was
    #: traced (``REPRO_TRACE``); ``None`` otherwise
    trace: Optional[Dict[str, Any]] = None
    #: fault-tolerance event counts for this run: shard retries, timeouts,
    #: worker crashes, pool respawns, serial degradation, lease re-acquires,
    #: manifest-resumed cells, remote-tier degradation (calls that fell
    #: back to local compute / foreign artifacts refused by the trust rules),
    #: zoo units the training pool failed to publish (trained in the parent
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
        """Count the native-kernel fallbacks this process resolved since run start.

        The process resolves its kernels once (before a pool forks, or at the
        first convolution), so pool workers never add fallbacks of their own.
        """
        self.count_fault("native_fallbacks", NATIVE_STATS.delta(self.native_mark)["fallbacks"])

    def fold_worker(self, stats: Optional[Dict[str, Any]]) -> None:
        """Merge one worker shard's counter deltas into the run totals."""
        if not stats:
            return
        pid = stats.get("pid")
        if pid and pid not in self.worker_pids:
            self.worker_pids.append(int(pid))
        for bucket, totals in (
            ("kernels", self.worker_kernels),
            ("queries", self.worker_queries),
        ):
            for name, value in (stats.get(bucket) or {}).items():
                totals[name] = totals.get(name, 0) + int(value)

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
        """This run's kernel-engine activity, local delta plus worker folds."""
        totals = KERNEL_STATS.delta(self.kernel_mark)
        for name, value in self.worker_kernels.items():
            totals[name] = totals.get(name, 0) + value
        return totals

    def query_totals(self) -> Dict[str, int]:
        """This run's attack-scoped classifier calls, workers folded in."""
        totals = QUERY_STATS.delta(self.query_mark)
        for name, value in self.worker_queries.items():
            totals[name] = totals.get(name, 0) + value
        return totals

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
        trained.  ``wall_s`` is the training pool's wall time plus the
        seconds this process spent training units itself (the ``--jobs 1``
        path, or units the pool failed to publish).
        """
        from repro.experiments.zoo import TRAINED_UNITS

        parent = TRAINED_UNITS[self.zoo_mark :]
        return {
            "pool": [name for name, _ in self.zoo_pool],
            "parent": [name for name, _ in parent],
            "unit_s": {name: round(seconds, 3) for name, seconds in [*self.zoo_pool, *parent]},
            "wall_s": round(self.zoo_pool_s + sum(seconds for _, seconds in parent), 3),
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
