"""Execution planning: resolve experiments into a deduplicated cell graph.

Before anything runs, :func:`build_plan` walks every requested experiment's
kind handler in *plan* mode and collects each grid cell it will need as a
:class:`CellTask` keyed by the cell's content digest.  Sibling experiments
that share cells (Figures 8/9 and 10/11 run the same white-box grid) collapse
onto the same task, so each cell is computed exactly once per run no matter
how many experiments reference it; the first referencing experiment *owns*
the task for cache-accounting purposes.

The plan is what :class:`repro.parallel.engine.ParallelEngine`, the one
cell executor, consumes at every ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.pipeline.cells import CellRequest, get_cell_kind


@dataclass(frozen=True)
class CellTask:
    """One unique grid cell to materialise (computed or loaded from cache)."""

    kind: str
    payload: Dict[str, Any]
    digest: str
    n_shards: int
    owner: str  #: name of the first experiment referencing this cell
    cost: float  #: scheduling weight; bigger tasks are dispatched first


@dataclass
class CellOutcome:
    """How one cell was materialised."""

    value: Any
    status: str  # "hit" (cache) or "computed"
    seconds: float = 0.0  # compute seconds (0 for hits); summed over shards
    shards: int = 1


@dataclass
class ExperimentPlan:
    """One experiment's slice of the run: its spec, handler and cell requests."""

    spec: Any
    handler: Any
    requests: List[CellRequest] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)


@dataclass
class ExecutionPlan:
    """The whole run: experiments in order plus the deduplicated task set."""

    experiments: List[ExperimentPlan]
    tasks: Dict[str, CellTask]  # digest -> task, insertion-ordered

    def scheduled(self) -> List[CellTask]:
        """Tasks in dispatch order: most expensive first (stable tie-break).

        Long-pole cells start first so a pool is never left waiting on a
        heavyweight straggler that was submitted last.
        """
        return sorted(self.tasks.values(), key=lambda task: -task.cost)


def cache_outlook(runner, plan: ExecutionPlan) -> Dict[str, Any]:
    """Classify every planned cell as warm, stale or cold -- before computing.

    * **warm** -- the artifact exists under the planned digest: a pure cache
      hit.
    * **stale** -- no artifact under the planned digest, but the namespace
      holds one with the same *content key* (same kind + fast + payload)
      recorded under different dependency fingerprints: the same cell
      computed by superseded code.  It will be recomputed; ``cache gc
      --stale`` reclaims the old bytes.
    * **cold** -- never computed here at all.

    Costs one ``exists`` per cell plus one sidecar scan per referenced
    namespace; no model is resolved and nothing is computed, so the service
    tier runs this at submit time and ``python -m repro info`` on every
    invocation.
    """
    from repro.pipeline.fingerprints import content_key
    from repro.pipeline.runner import _jsonable

    store = runner.store
    indexes: Dict[str, Dict[str, list]] = {}
    counts = {"warm": 0, "stale": 0, "cold": 0}
    cells: List[Dict[str, Any]] = []
    for digest, task in plan.tasks.items():
        entry: Dict[str, Any] = {
            "kind": task.kind,
            "digest": digest,
            "experiment": task.owner,
        }
        if store.contains(task.kind, digest):
            entry["status"] = "warm"
        else:
            if task.kind not in indexes:
                indexes[task.kind] = store.meta_index(task.kind)
            key = content_key(task.kind, runner.fast, _jsonable(task.payload))
            superseded = [d for d in indexes[task.kind].get(key, []) if d != digest]
            if superseded:
                entry["status"] = "stale"
                entry["superseded"] = superseded
            else:
                entry["status"] = "cold"
        counts[entry["status"]] += 1
        cells.append(entry)
    return {**counts, "cells": cells}


def build_plan(runner, specs: List[Any]) -> ExecutionPlan:
    """Plan ``specs`` against ``runner``'s configuration (fast flag, sharding)."""
    experiments: List[ExperimentPlan] = []
    tasks: Dict[str, CellTask] = {}
    for spec in specs:
        handler = runner.kind_handler(spec.kind)
        requests = list(handler.plan(runner, spec))
        digests = []
        for request in requests:
            digest = runner.cell_digest(request.kind, request.payload)
            digests.append(digest)
            if digest not in tasks:
                kind = get_cell_kind(request.kind)
                n_shards = kind.n_shards(runner, request.payload)
                tasks[digest] = CellTask(
                    kind=request.kind,
                    payload=request.payload,
                    digest=digest,
                    n_shards=n_shards,
                    owner=spec.name,
                    cost=float(n_shards),
                )
        experiments.append(
            ExperimentPlan(spec=spec, handler=handler, requests=requests, digests=digests)
        )
    return ExecutionPlan(experiments=experiments, tasks=tasks)
