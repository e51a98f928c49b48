"""The experiment runner: resolves declarative specs and executes them.

The :class:`Runner` is the single execution engine behind ``python -m repro
run``, the service and the perf harnesses.  It

* resolves every string in an :class:`~repro.pipeline.spec.ExperimentSpec`
  through the unified registries (zoo models, hardware variants, attacks,
  experiment kinds),
* memoises trained models in-process (the zoo already caches parameters on
  disk, so across processes only the first run trains),
* plans each run as a deduplicated graph of grid cells
  (:mod:`repro.parallel.plan`): sibling experiments that share cells
  (Figures 8/9 and 10/11 share their white-box runs) compute each cell
  exactly once per run and hit its cached JSON artifact forever after,
* executes the cells through :mod:`repro.parallel.engine`, the one cell
  executor: in this process with ``jobs=1``, on a sharded process pool with
  ``jobs > 1``, bit-for-bit identically (per-shard RNG seeds are spawned
  from cell content, never from the worker layout),
* emits an :class:`ExperimentResult` carrying the paper-style text table,
  machine-readable metrics and the run's cell telemetry, and can persist both
  as ``results/<name>.txt`` / ``results/<name>.json`` (written atomically).

Experiment *kinds* (transferability, blackbox, whitebox, accuracy, ...) are
themselves registry entries, so a new scenario shape can be plugged in without
touching this module (see :mod:`repro.pipeline.handlers`); the cell
computations they schedule live in :mod:`repro.pipeline.cells`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.attacks.base import Attack, Classifier
from repro.attacks.registry import ATTACKS
from repro.core.results import format_table
from repro.experiments.zoo import CACHE_DIR, ZOO
from repro.faults import RunManifest
from repro.nn.models import VARIANTS
from repro.obs import TRACER
from repro.parallel.locks import atomic_write_text
from repro.parallel.sharding import attack_shard_size, resolve_jobs
from repro.parallel.telemetry import CellEvent, RunTelemetry
from repro.pipeline.cells import get_cell_kind
from repro.pipeline.spec import AttackGridEntry, ExperimentSpec, canonical_digest
from repro.registry import registry
from repro.store import ArtifactStore

#: named experiment specs -- the catalog (namespace ``"experiment"``)
EXPERIMENTS = registry("experiment")

#: execution strategies, one per spec ``kind`` (namespace ``"experiment-kind"``)
EXPERIMENT_KINDS = registry("experiment-kind")

# Cell cache invalidation is *per dependency surface*, not global: each cell
# kind declares the numerics surfaces its value depends on (``deps=`` in
# :mod:`repro.pipeline.cells`) and the digest folds in only those surfaces'
# fingerprint tokens (:mod:`repro.pipeline.fingerprints`).  The retired
# global ``CELL_CACHE_VERSION`` knob's history -- and the migration story --
# lives in ``docs/caching.md``; the per-surface version constants now carry
# that history (e.g. :data:`repro.attacks.ATTACK_NUMERICS_VERSION`).  Within
# a development cycle, ``use_cache=False`` / ``--no-cache`` /
# ``REPRO_PIPELINE_NO_CACHE=1`` still forces recomputation wholesale.

#: attack sample budget applied by ``--fast``
FAST_MAX_SAMPLES = 4

#: iteration-style attack parameters scaled down by ``--fast`` (value // 4,
#: floored at the minimum that keeps the attack functional)
_FAST_PARAM_FLOORS = {
    "steps": 1,
    "max_iterations": 1,
    "max_rounds": 1,
    "init_trials": 10,
    "num_eval_samples": 4,
}


@dataclass
class ExperimentResult:
    """Structured outcome of one pipeline experiment."""

    name: str
    title: str
    kind: str
    fast: bool
    headers: List[str]
    rows: List[List[Any]]
    metrics: Dict[str, Any]
    spec: Dict[str, Any] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0
    telemetry: Dict[str, Any] = field(default_factory=dict)

    @property
    def table(self) -> str:
        """The paper-style plain-text table."""
        return format_table(self.headers, self.rows)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "title": self.title,
            "kind": self.kind,
            "fast": self.fast,
            "headers": self.headers,
            "rows": [[_jsonable(cell) for cell in row] for row in self.rows],
            "metrics": _jsonable(self.metrics),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "telemetry": _jsonable(self.telemetry),
            "spec": _jsonable(self.spec),
        }

    def write(self, results_dir: Union[str, Path]) -> Tuple[Path, Path]:
        """Persist ``<name>.txt`` (table) and ``<name>.json`` (full result).

        Both files are written atomically (tmp + rename), so concurrent runs
        sharing a results directory never expose truncated artifacts.
        """
        results_dir = Path(results_dir)
        txt_path = results_dir / f"{self.name}.txt"
        json_path = results_dir / f"{self.name}.json"
        atomic_write_text(txt_path, self.table + "\n")
        atomic_write_text(
            json_path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        )
        return txt_path, json_path


#: the result fields that may legitimately differ between two executions of
#: the same experiment (observability data); everything else is covered by
#: the ``--jobs N`` == ``--jobs 1`` determinism guarantee
NONDETERMINISTIC_RESULT_FIELDS = ("cache", "elapsed_seconds", "telemetry")


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-encodable structures."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):  # numpy scalars
        try:
            return value.item()
        except (TypeError, ValueError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


# in-process memoisation shared by all Runner instances: trained models are
# immutable-by-convention here (their parameters are only read), and the zoo's
# disk cache already guarantees cross-process reuse.  The lock serialises
# resolution across threads (the service tier runs concurrent jobs on a
# thread pool; without it two jobs could train the same model twice).  It is
# reentrant because resolve_variant resolves its base model through zoo().
_ZOO_CACHE: Dict[Any, Any] = {}
_VARIANT_CACHE: Dict[Any, Any] = {}
_MODEL_CACHE_LOCK = threading.RLock()


def clear_model_caches() -> None:
    """Drop the in-process model and dataset-split memos (tests / memory pressure)."""
    from repro.experiments.zoo import clear_dataset_splits
    from repro.pipeline.cells import _SELECTION_CACHE, _WARMED

    clear_dataset_splits()
    _ZOO_CACHE.clear()
    _VARIANT_CACHE.clear()
    _SELECTION_CACHE.clear()  # victim selections are tied to the memoised models
    _WARMED.clear()  # warm-up signatures reference the memoised models too


class Runner:
    """Executes :class:`ExperimentSpec` instances.

    Parameters
    ----------
    fast:
        Smoke-test mode: fast zoo profiles, ``FAST_MAX_SAMPLES`` attack
        samples, scaled-down attack iteration counts.
    results_dir:
        When set, :meth:`run` writes ``<name>.txt`` and ``<name>.json`` here.
    cache_dir:
        Grid-cell artifact cache location (default: ``<zoo cache>/pipeline``).
    use_cache:
        Disable to force recomputation of every grid cell.
    progress:
        Optional callable receiving human-readable progress lines.
    jobs:
        Worker processes for cell execution: an integer, or ``"auto"`` for
        the CPU count.  ``jobs=1`` (the default) computes every cell in this
        process and forks nothing; any value produces bit-for-bit identical
        results.
    shard_size:
        Victim examples per shard (= per batched attack rollout) of the
        attack-evaluation cells.  Execution tuning only: results are
        bit-for-bit identical for every value, exactly like ``jobs``.
        Defaults to the ``REPRO_ATTACK_SHARD_SIZE`` policy.
    resume:
        Resume an interrupted run: the previous run manifest
        (``results/<label>.manifest.json``, written incrementally as cells
        complete) names every finished cell, and each one still published in
        the store is counted as *resumed* in the run telemetry instead of an
        anonymous cache hit.  Requires ``results_dir`` and the cache; value
        bits are unaffected either way.
    remote:
        Base URL of a ``serve --share-store`` peer.  The cell cache becomes
        a :class:`~repro.store.TieredStore`: local misses fill through from
        the peer (after integrity + fingerprint verification) and computed
        cells publish back asynchronously.  Purely an execution accelerator:
        a dead, flapping or lying peer degrades to local-only compute with
        byte-identical results (the degradation is counted in the run
        telemetry, never raised).
    """

    def __init__(
        self,
        fast: bool = False,
        results_dir: Optional[Union[str, Path]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        use_cache: bool = True,
        progress: Optional[Callable[[str], None]] = None,
        jobs: Union[int, str, None] = 1,
        shard_size: Optional[int] = None,
        resume: bool = False,
        remote: Optional[str] = None,
    ):
        self.fast = bool(fast)
        self.results_dir = Path(results_dir) if results_dir is not None else None
        self.cache_dir = Path(cache_dir) if cache_dir is not None else CACHE_DIR / "pipeline"
        if os.environ.get("REPRO_PIPELINE_NO_CACHE", "").lower() not in ("", "0", "false"):
            use_cache = False
        self.use_cache = bool(use_cache)
        self.progress = progress
        self.jobs = resolve_jobs(jobs)
        self.shard_size = attack_shard_size() if shard_size is None else max(1, int(shard_size))
        #: the multi-tenant artifact store backing the cell cache (namespace =
        #: cell kind); budget / lease TTL come from ``REPRO_STORE_BUDGET`` /
        #: ``REPRO_STORE_LEASE_TTL``.  With a remote peer configured the
        #: local store becomes the L1 tier of a TieredStore; pool workers
        #: stay local-only (the remote tier lives in the planning process).
        self.remote = str(remote) if remote else None
        local_store = ArtifactStore(self.cache_dir)
        if self.remote is not None:
            from repro.store import RemoteStoreClient, TieredStore

            tiered = TieredStore(local_store, RemoteStoreClient(self.remote))
            # late-bound through self: each run() swaps in a fresh telemetry
            tiered.on_fault = lambda name, n=1: self.telemetry.count_fault(name, n)
            self.store = tiered
        else:
            self.store = local_store
        #: optional observer invoked with each :class:`CellEvent` as cells
        #: complete -- the service tier streams these to HTTP clients
        self.on_cell: Optional[Callable[[CellEvent], None]] = None
        # per-run counters; reset at the start of every run()/run_many()
        self.cache_hits = 0
        self.cache_misses = 0
        self.telemetry = RunTelemetry(jobs=self.jobs)
        #: the last run's pre-compute warm/stale/cold plan outlook
        #: (:func:`repro.parallel.plan.cache_outlook`), for observability
        self.last_outlook: Optional[Dict[str, Any]] = None
        self.resume = bool(resume)
        # per-run crash-resume state: the active manifest and the digests the
        # previous (interrupted) run's manifest proved complete
        self._manifest: Optional[RunManifest] = None
        self._resume_digests: set = set()

    # ------------------------------------------------------------------- run
    def run(self, experiment: Union[str, ExperimentSpec]) -> ExperimentResult:
        """Execute one experiment (by catalog name or as an explicit spec)."""
        return self.run_many([experiment])[0]

    def run_many(
        self,
        experiments: Sequence[Union[str, ExperimentSpec]],
        on_result: Optional[Callable[[ExperimentResult], None]] = None,
    ) -> List[ExperimentResult]:
        """Execute several experiments as one planned run.

        All experiments' grid cells are planned and deduplicated up front, so
        cells shared between experiments are computed exactly once; with
        ``jobs > 1`` the unique cells (and their shards), and the zoo units
        they need, spread across the worker pool.  Each experiment's result
        is assembled, written and passed to ``on_result`` the moment its
        last cell lands, so ``on_result`` fires in completion order; the
        returned list keeps request order.  A result written before the run
        ends carries the run-scoped telemetry totals (kernels, attack
        queries, zoo training) as of that moment.
        """
        from repro.parallel.plan import build_plan

        specs = [self._resolve_spec(e) for e in experiments]
        self.telemetry = RunTelemetry(jobs=self.jobs)
        self.cache_hits = 0
        self.cache_misses = 0
        label = specs[0].name + (f"+{len(specs) - 1}" if len(specs) > 1 else "")
        scope = TRACER.begin_run(label)
        try:
            with TRACER.span(
                "run", cat="runner", experiments=[s.name for s in specs], jobs=self.jobs
            ):
                with TRACER.span("plan", cat="runner", experiments=len(specs)):
                    plan = build_plan(self, specs)
                self.telemetry.cells_total = len(plan.tasks)
                self._prepare_manifest(label, specs, len(plan.tasks))
                for eplan in plan.experiments:
                    self._log(
                        f"[{eplan.spec.name}] kind={eplan.spec.kind} fast={self.fast} "
                        f"cells={len(eplan.requests)} jobs={self.jobs}"
                    )
                if self.use_cache and plan.tasks:
                    from repro.parallel.plan import cache_outlook

                    outlook = cache_outlook(self, plan)
                    self.last_outlook = outlook
                    self._log(
                        f"  cache outlook: {outlook['warm']} warm / "
                        f"{outlook['stale']} stale / {outlook['cold']} cold "
                        f"of {len(plan.tasks)} cells"
                    )
                results: Dict[int, ExperimentResult] = {}
                outcomes: Dict[str, Any] = {}
                left = [set(eplan.digests) for eplan in plan.experiments]

                def land(index: int) -> None:
                    eplan = plan.experiments[index]
                    with TRACER.span("assemble", cat="runner", experiment=eplan.spec.name):
                        result = self._assemble(eplan, plan, outcomes)
                        result.telemetry.update(self._run_totals())
                        if self.results_dir is not None:
                            result.write(self.results_dir)
                    results[index] = result
                    if on_result is not None:
                        on_result(result)

                def landed(digest: str, outcome) -> None:
                    outcomes[digest] = outcome
                    for index, digests in enumerate(left):
                        if digest in digests:
                            digests.discard(digest)
                            if not digests:
                                land(index)

                for index, digests in enumerate(left):
                    if not digests:  # an experiment that plans no cells
                        land(index)
                self._compute_cells(plan, landed)
                self.telemetry.fold_native()
                if self.remote is not None:
                    remote = self.telemetry.remote_totals()
                    self._log(
                        f"  remote: {remote['hits']} hit(s) / {remote['misses']} miss(es) / "
                        f"{remote['puts']} published via {self.remote}"
                    )
                if self._manifest is not None:
                    self._manifest.finish()
        finally:
            if self.remote is not None:
                # a failed run still drains its publish queue (best effort):
                # cells computed before the failure stay shareable
                self.store.flush()
            merged = None
            if scope is not None and self.results_dir is not None:
                merged = self.results_dir / f"{label}.trace.ndjson"
            trace = TRACER.end_run(scope, merged)
            if trace is not None:
                self.telemetry.trace = trace
                self._log(
                    f"  trace: {trace['spans']} spans from "
                    f"{len(trace['pids'])} process(es) -> {trace['path']}"
                )
        return [results[index] for index in range(len(specs))]

    def _run_totals(self) -> Dict[str, Any]:
        """The run-scoped telemetry a result carries, as of now.

        Cell compute is shared across the run's experiments, so kernel,
        query and zoo-training activity cannot be attributed per experiment:
        every result carries the run's totals so far (pool workers folded
        in), marked as such.
        """
        self.telemetry.fold_native()
        totals: Dict[str, Any] = {
            "kernels": {"scope": "run", **self.telemetry.kernel_totals()},
            "attack_queries": {"scope": "run", **self.telemetry.attack_queries()},
            "zoo": {"scope": "run", **self.telemetry.zoo_training()},
        }
        if self.remote is not None:
            # drain pending publications first so the recorded totals cover
            # the run so far, not a race with the publisher
            self.store.flush()
            totals["remote"] = {
                "scope": "run",
                "url": self.remote,
                **self.telemetry.remote_totals(),
            }
            totals["faults"] = dict(self.telemetry.faults)
        return totals

    def _prepare_manifest(self, label: str, specs, cells_total: int) -> None:
        """Arm this run's crash-resume manifest (requires a results dir).

        With ``resume=True`` the previous manifest's completed digests are
        loaded first; cells that hit the cache *and* appear there are counted
        as ``cells_resumed`` in the telemetry -- the auditable proof that a
        resumed run recomputed only unfinished work.
        """
        self._manifest = None
        self._resume_digests = set()
        if self.results_dir is None:
            if self.resume:
                self._log("  resume: no results dir, nothing to resume from")
            return
        path = self.results_dir / f"{label}.manifest.json"
        if self.resume:
            if not self.use_cache:
                self._log("  resume: cache disabled; recomputing every cell")
            else:
                previous = RunManifest.load(path)
                if previous is None:
                    self._log("  resume: no usable manifest; running from scratch")
                else:
                    self._resume_digests = set(previous.completed)
                    self._log(
                        f"  resume: previous run completed "
                        f"{len(self._resume_digests)} cell(s)"
                    )
        self._manifest = RunManifest(
            path, label=label, experiments=[s.name for s in specs], cells_total=cells_total
        )

    # ------------------------------------------------------- plan execution
    def kind_handler(self, kind: str):
        """The registered handler for an experiment kind (plan/assemble pair)."""
        return EXPERIMENT_KINDS.get(kind).factory

    def _compute_cells(self, plan, landed: Callable[[str, Any], None]) -> None:
        """Materialise every unique planned cell; ``landed(digest, outcome)`` as each lands."""
        from repro.parallel.engine import ParallelEngine

        def record(task, outcome) -> None:
            event = self.telemetry.record(
                CellEvent(
                    kind=task.kind,
                    digest=task.digest,
                    status=outcome.status,
                    seconds=outcome.seconds,
                    shards=outcome.shards,
                    experiment=task.owner,
                )
            )
            if outcome.status == "hit" and task.digest in self._resume_digests:
                # the interrupted run finished this cell and its artifact is
                # still published -- the resume actually saved the work
                self.telemetry.count_fault("cells_resumed")
            if self._manifest is not None:
                self._manifest.record(task.digest, task.kind, outcome.status, outcome.seconds)
            self._log(self.telemetry.progress_line(event))
            if self.on_cell is not None:
                self.on_cell(event)
            landed(task.digest, outcome)

        groups = [eplan.digests for eplan in plan.experiments]
        outcomes = ParallelEngine(self).execute(plan.scheduled(), on_cell=record, groups=groups)
        self.cache_hits += sum(1 for o in outcomes.values() if o.status == "hit")
        self.cache_misses += sum(1 for o in outcomes.values() if o.status == "computed")

    def _assemble(self, eplan, plan, outcomes) -> ExperimentResult:
        """Build one experiment's result from its materialised cells."""
        spec = eplan.spec
        start = time.perf_counter()
        cells = {
            request.key: outcomes[digest].value
            for request, digest in zip(eplan.requests, eplan.digests)
        }
        headers, rows, metrics = eplan.handler.assemble(self, spec, cells)
        hits, misses, compute_seconds = self._attribute(eplan, plan, outcomes)
        referenced = set(eplan.digests)
        events = [e.to_dict() for e in self.telemetry.events if e.digest in referenced]
        elapsed = (time.perf_counter() - start) + compute_seconds
        return ExperimentResult(
            name=spec.name,
            title=spec.title,
            kind=spec.kind,
            fast=self.fast,
            headers=list(headers),
            rows=[list(row) for row in rows],
            metrics=metrics,
            spec=spec.to_dict(),
            cache_hits=hits,
            cache_misses=misses,
            elapsed_seconds=elapsed,
            telemetry={"jobs": self.jobs, "cells": events},
        )

    def _attribute(self, eplan, plan, outcomes) -> Tuple[int, int, float]:
        """Per-experiment cache accounting over the run's shared cell graph.

        A cell computed this run counts as a miss only for the experiment
        that owns it (first referencing experiment, once); every other
        reference -- later experiments, repeated requests -- is a hit, which
        matches what a serial unshared execution would have observed.
        """
        hits = misses = 0
        compute_seconds = 0.0
        counted = set()
        for digest in eplan.digests:
            task, result = plan.tasks[digest], outcomes[digest]
            first = digest not in counted
            counted.add(digest)
            if result.status == "computed" and task.owner == eplan.spec.name and first:
                misses += 1
                compute_seconds += result.seconds
            else:
                hits += 1
        return hits, misses, compute_seconds

    @staticmethod
    def _resolve_spec(experiment: Union[str, ExperimentSpec]) -> ExperimentSpec:
        if isinstance(experiment, ExperimentSpec):
            return experiment
        import repro.pipeline.catalog  # noqa: F401  (populates EXPERIMENTS)

        return EXPERIMENTS.create(experiment)

    def _log(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    # -------------------------------------------------------- model resolution
    def zoo(self, name: str, **kwargs) -> Any:
        """Resolve a trained-model provider, memoised in-process (thread-safe)."""
        key = (name, self.fast, tuple(sorted(kwargs.items())))
        if key not in _ZOO_CACHE:
            with _MODEL_CACHE_LOCK:
                if key not in _ZOO_CACHE:
                    self._log(f"  zoo: resolving {name} {kwargs or ''}")
                    _ZOO_CACHE[key] = ZOO.create(name, fast=self.fast, **kwargs)
        return _ZOO_CACHE[key]

    def resolve_variant(self, spec: ExperimentSpec, variant: str):
        """A hardware variant of the spec's base model.

        ``dq_full`` / ``dq_weight`` resolve through a Defensive Quantization
        zoo entry (independently trained models) -- by default ``dq_objects``,
        overridable per spec via ``params["dq_zoo"]`` so a future digits DQ
        comparison binds its own dataset; everything else converts the spec's
        trained base model through the ``"variant"`` registry.
        """
        if variant.startswith("dq_"):
            models, _ = self.zoo(spec.params.get("dq_zoo", "dq_objects"))
            return models[variant[len("dq_") :]]
        key = (spec.model, self.fast, variant)
        if key not in _VARIANT_CACHE:
            with _MODEL_CACHE_LOCK:
                if key not in _VARIANT_CACHE:
                    base, _split = self.zoo(spec.model)
                    _VARIANT_CACHE[key] = VARIANTS.create(variant, model=base)
        return _VARIANT_CACHE[key]

    def classifier(self, spec: ExperimentSpec, variant: str) -> Classifier:
        """A fresh attack facade over a resolved variant model."""
        return Classifier(self.resolve_variant(spec, variant))

    def split(self, spec: ExperimentSpec):
        """The spec model's train/test split."""
        _model, split = self.zoo(spec.model)
        return split

    # ------------------------------------------------------------- attacks
    def attack_params(self, entry: AttackGridEntry) -> Dict[str, Any]:
        """The entry's constructor parameters, scaled down in fast mode."""
        params = dict(entry.params)
        if self.fast:
            for key, floor in _FAST_PARAM_FLOORS.items():
                if key in params:
                    params[key] = max(floor, int(params[key]) // 4)
        return params

    def attack(self, entry: AttackGridEntry) -> Attack:
        """Instantiate one attack-grid entry through the attack registry."""
        return ATTACKS.create(entry.attack, **self.attack_params(entry))

    def sample_budget(self, spec: ExperimentSpec) -> int:
        """Attack sample budget, shrunk by fast mode."""
        n = int(spec.n_samples)
        return min(n, FAST_MAX_SAMPLES) if self.fast else n

    # ------------------------------------------------------- cell artifacts
    def cell_dependencies(self, cell_kind: str, payload: Dict[str, Any]) -> Tuple[str, ...]:
        """The fingerprint surface keys this cell's digest re-keys on.

        Answered from the kind's ``deps=`` declaration; an unregistered kind
        raises :class:`~repro.registry.RegistryError`.
        """
        return get_cell_kind(cell_kind).dependencies(payload)

    def cell_fingerprints(self, cell_kind: str, payload: Dict[str, Any]) -> Dict[str, str]:
        """``{surface key: live fingerprint token}`` for this cell."""
        from repro.pipeline.fingerprints import fingerprint_map

        return fingerprint_map(self.cell_dependencies(cell_kind, payload))

    def cell_digest(self, cell_kind: str, payload: Dict[str, Any]) -> str:
        """The cell's content-derived cache key.

        ``payload`` must fully determine the cell's result: it is hashed
        together with the cell kind, the fast flag and the fingerprint
        tokens of the dependency surfaces the kind declares
        (:mod:`repro.pipeline.fingerprints`) -- so a numerics bump moves
        exactly the digests of the cells that depend on it.  Cells are keyed
        by *content*, not by experiment name, so experiments that share work
        share artifacts; fingerprints are pure functions of module-level
        version constants, so parent and forked worker always agree.
        """
        return canonical_digest(
            {
                "cell_kind": cell_kind,
                "fast": self.fast,
                "deps": self.cell_fingerprints(cell_kind, payload),
                "payload": _jsonable(payload),
            }
        )

    def cell_meta(self, cell_kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The provenance sidecar written next to the cell's artifact.

        ``content_key`` identifies *what* the cell computes (kind + fast +
        payload, no fingerprints); ``deps`` records the fingerprint tokens
        it was computed under.  Together they let the store answer "is this
        artifact stale, and which dependency moved?" without re-planning
        (``cache stats`` / ``cache gc --stale`` / ``cache explain``).
        """
        from repro.pipeline.fingerprints import content_key

        return {
            "kind": cell_kind,
            "fast": self.fast,
            "content_key": content_key(cell_kind, self.fast, _jsonable(payload)),
            "deps": self.cell_fingerprints(cell_kind, payload),
        }

    def read_cell(self, cell_kind: str, payload: Dict[str, Any], digest: str) -> Optional[Any]:
        """The cached cell value, or ``None`` (cache off / absent / corrupt).

        A lock-free optimistic read: atomic publication makes torn artifacts
        impossible, so the warm path costs one ``open`` and no coordination.
        """
        if not self.use_cache:
            return None
        return self.store.get(cell_kind, digest)

    def write_cell(
        self,
        cell_kind: str,
        digest: str,
        value: Any,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Publish a computed cell value atomically (no-op with cache off).

        When the payload is known, a provenance sidecar (:meth:`cell_meta`)
        is published alongside so the artifact's staleness stays checkable.
        """
        if self.use_cache:
            meta = self.cell_meta(cell_kind, payload) if payload is not None else None
            self.store.put(cell_kind, digest, value, meta=meta)

    def merge_cell(self, cell_kind: str, payload: Dict[str, Any], shards: List[Any]) -> Any:
        """Fold ordered shard results into the published cell value."""
        return _jsonable(get_cell_kind(cell_kind).merge(payload, shards))


# ------------------------------------------------------------------ helpers
def variant_labels(spec: ExperimentSpec, names: Sequence[str]) -> List[str]:
    """Display labels for variant names (spec.params['variant_labels'] wins)."""
    labels = dict(spec.params.get("variant_labels", {}))
    return [labels.get(name, name) for name in names]


def list_experiments() -> List[str]:
    """Catalog experiment names, in registration (paper) order."""
    import repro.pipeline.catalog  # noqa: F401

    return EXPERIMENTS.names()


def get_experiment(name: str) -> ExperimentSpec:
    """Fetch one catalog spec by name."""
    import repro.pipeline.catalog  # noqa: F401

    return EXPERIMENTS.create(name)
