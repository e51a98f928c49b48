"""The one cell executor behind every :class:`Runner`, whatever its ``jobs``.

Planned cell tasks (see :mod:`repro.parallel.plan`) are expanded into their
shard subtasks.  With ``jobs > 1`` the shards are scheduled onto a
``ProcessPoolExecutor``; with ``jobs == 1`` nothing forks and the parent
computes every shard in-process, in task order.  Either way the parent
merges each cell's ordered shard results, writes the artifact atomically and
streams a progress event.  Because shard decomposition and per-shard RNG
seeding are pure functions of cell content (:mod:`repro.parallel.sharding`),
every ``jobs`` value produces bit-for-bit the same values.

Coordination with *other* processes -- pool workers of a second CLI
invocation or service job sharing the cache directory -- uses the writer
leases of :mod:`repro.store`: each cell is computed under its digest lease
(refreshed as shards complete, so long cells never look abandoned), and a
cell being computed elsewhere is *deferred* here and collected from the
cache once the foreign writer publishes it, instead of being recomputed.  A
foreign writer that crashes mid-cell loses its lease and the cell is
computed here -- a wedged cache cannot outlive its writer.  Leases are
claimed only after the native build, the zoo training and the warm-up of
every cell that missed the cache, so a lease's TTL bounds shard compute,
never a cold zoo's training.

Fault tolerance (see ``docs/faults.md``): every in-process step -- the
warm-up, each shard at ``jobs == 1``, the shards of a degraded pool and of a
taken-over cell -- runs under one bounded retry (``REPRO_SHARD_RETRIES``
attempts after the first, with exponential backoff).  Pool shards run under
the same budget plus an optional wall-clock deadline
(``REPRO_SHARD_TIMEOUT``).  A worker that dies (segfault, OOM kill,
injected ``worker.crash``) breaks the pool -- the engine respawns it and
resubmits the lost shards with exponential backoff; a worker that wedges
(injected ``shard.hang``, a stuck syscall) blows its shard's deadline, and
since a running future cannot be cancelled the pool is killed outright and
rebuilt.  After :data:`~repro.faults.policy.POOL_RESPAWN_LIMIT` rebuilds
the engine stops trusting process isolation and computes the remaining
shards in-process -- slower, but the run completes with identical bits.
Every recovery action lands in the run telemetry's ``faults`` counters, so
a chaos run can *prove* what it survived.

Worker processes are started with an initialiser that imports the pipeline
registries and builds a per-process :class:`Runner`; zoo models and
multiplier LUTs are resolved once per process (and, under the default
``fork`` start method, models the parent warmed up before the pool was
created are inherited copy-on-write and never rebuilt at all).

Zoo training phase (``jobs > 1`` only): before that warm-up, the zoo
*training units* the cells that missed the cache need
(:func:`repro.experiments.zoo.zoo_units`, one per cached ``.npz``) are
checked on disk.  When two or more are missing they are trained on a
separate fork pool of ``runner.jobs`` workers -- units start as soon as the
units they wait for have published (a substitute waits for its LeNet) -- so
the phase costs about its longest chain instead of the sum, and the warm-up
then only loads.  A unit the pool fails to publish (a crashed worker --
``worker.crash`` at key ``zoo:<unit>`` -- or an error) is counted in
``faults["zoo_fallbacks"]`` and trained by the warm-up in the parent
exactly as at ``jobs == 1``, with the same bits.  Before either pool forks,
the parent builds or loads the native conv/pool kernels
(:mod:`repro.nn.native`), so every worker inherits the loaded library, or
the numpy fallback decision, instead of resolving its own.

Start-method caveat: ``fork`` also carries *runtime* registry registrations
(custom zoo entries, specs registered from a script) into the workers.  On
platforms without ``fork`` the ``spawn`` fallback re-imports the package
fresh, so only registrations performed at import time (the catalog, or
modules imported by your entry point) are visible to workers -- register
custom components in an importable module, or run with ``jobs=1``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.arith.kernels import KERNEL_STATS
from repro.attacks.base import QUERY_STATS
from repro.experiments.zoo import TRAINED_UNITS, TrainingUnit, zoo_units
from repro.faults import FAULTS, POOL_RESPAWN_LIMIT, backoff_seconds, shard_retries, shard_timeout
from repro.nn import native
from repro.obs import TRACER
from repro.parallel.plan import CellOutcome, CellTask
from repro.parallel.telemetry import DIGEST_WIDTH
from repro.pipeline.cells import get_cell_kind, zoo_requests
from repro.store import Lease

#: called with (task, outcome) as each cell completes
OnCell = Callable[[CellTask, CellOutcome], None]

#: held by every in-process shard: runs on several threads of one process
#: (the service's job threads) share the memoised models, whose layers keep
#: per-call state between forward and backward, so their shards take turns
_SHARD_LOCK = threading.Lock()


class CellExecutionError(RuntimeError):
    """A cell failed permanently (retry budget exhausted or fatal error).

    Carries the failing cell's identity -- kind, digest, shard index and
    owning experiment -- so the CLI and the service can report *which* cell
    of *which* experiment died without parsing the message.
    """

    def __init__(
        self,
        message: str,
        kind: str = "",
        digest: str = "",
        shard: Optional[int] = None,
        owner: str = "",
    ):
        super().__init__(message)
        self.kind = kind
        self.digest = digest
        self.shard = shard
        self.owner = owner


def _exhausted(
    task: CellTask, shard: Optional[int], cause: str, attempts: int, exc: Optional[BaseException]
) -> CellExecutionError:
    """The error for a shard (or, with ``shard=None``, a warm-up) out of retries."""
    step = "warm-up" if shard is None else f"shard {shard}"
    return CellExecutionError(
        f"{task.kind} cell {task.digest[:10]} {step} (owner {task.owner}) {cause} "
        f"after {attempts} attempt(s)" + (f": {exc}" if exc is not None else ""),
        kind=task.kind,
        digest=task.digest,
        shard=shard,
        owner=task.owner,
    )


# ----------------------------------------------------------- worker side
_WORKER_RUNNER = None


def _worker_init(
    fast: bool,
    cache_dir: str,
    use_cache: bool,
    shard_size: int,
    trace_dir: Optional[str] = None,
) -> None:
    """Build the per-process runner; resolves registries exactly once.

    ``trace_dir`` (set when the parent run is traced) points the worker's
    tracer at the run's spool directory, so worker spans land next to the
    parent's and are merged at run end.
    """
    global _WORKER_RUNNER
    import repro.pipeline  # populates kind/cell/zoo/attack registries

    if trace_dir is not None:
        TRACER.attach(trace_dir)
    _WORKER_RUNNER = repro.pipeline.Runner(
        fast=fast, cache_dir=cache_dir, use_cache=use_cache, jobs=1, shard_size=shard_size
    )


def _run_shard(
    kind_name: str,
    payload: Dict[str, Any],
    shard_index: int,
    digest: str = "",
    attempt: int = 0,
) -> Tuple[Any, float, Dict[str, Any]]:
    """Compute one shard in a worker; returns ``(value, seconds, stats)``.

    ``stats`` carries the worker's pid and the shard's kernel/query counter
    deltas -- the parent folds them into :class:`RunTelemetry`, closing the
    per-process counter gap of parallel runs.

    The ``worker.crash`` / ``shard.hang`` injection points live here, keyed
    ``digest:shard:attempt`` -- folding the attempt in is what lets a chaos
    run converge: the doomed first attempt dies deterministically, its retry
    draws a fresh coin.
    """
    fault_key = f"{digest}:{shard_index}:{attempt}"
    FAULTS.maybe_crash(fault_key)
    FAULTS.maybe_hang(fault_key)
    kernel_mark = KERNEL_STATS.snapshot()
    query_mark = QUERY_STATS.snapshot()
    start = perf_counter()
    with TRACER.span(
        "shard",
        cat="engine",
        kind=kind_name,
        digest=digest[:DIGEST_WIDTH],
        shard=shard_index,
    ):
        value = get_cell_kind(kind_name).compute_shard(_WORKER_RUNNER, payload, shard_index)
    stats = {
        "pid": os.getpid(),
        "kernels": KERNEL_STATS.delta(kernel_mark),
        "queries": QUERY_STATS.delta(query_mark),
    }
    return value, perf_counter() - start, stats


_WORKER_UNITS: Dict[str, TrainingUnit] = {}


def _units_worker_init(units: Dict[str, TrainingUnit]) -> None:
    """Training-pool initialiser: the units arrive by fork, never pickled."""
    global _WORKER_UNITS
    _WORKER_UNITS = units


def _train_unit(name: str) -> Tuple[Optional[float], Dict[str, int]]:
    """Train (or, if published meanwhile, load) one zoo unit in a worker.

    Returns the seconds this worker spent training it (``None`` if it only
    loaded it) and its kernel-counter delta, which the parent folds into the
    run telemetry (a DA-victim substitute queries the approximate kernels
    while it trains).
    """
    FAULTS.maybe_crash(f"zoo:{name}")
    trained_mark = len(TRAINED_UNITS)
    kernel_mark = KERNEL_STATS.snapshot()
    _WORKER_UNITS[name].resolve()
    trained = TRAINED_UNITS[trained_mark:]
    seconds = sum(s for _, s in trained) if trained else None
    return seconds, KERNEL_STATS.delta(kernel_mark)


@dataclass
class _ShardRun:
    """One shard attempt in flight: identity, retry count, wall deadline."""

    task: CellTask
    index: int
    attempt: int = 0
    deadline: Optional[float] = None  # monotonic, None when untimed


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when some of its workers are wedged.

    ``shutdown()`` alone would join workers that will never return from a
    hung shard, so the processes are terminated first (escalating to kill)
    and only then is the executor's bookkeeping shut down.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for proc in processes:
        proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)


# ----------------------------------------------------------- parent side
class ParallelEngine:
    """Executes a run's unique cell tasks on ``runner.jobs`` worker processes."""

    def __init__(self, runner):
        self.runner = runner

    def execute(self, tasks: List[CellTask], on_cell: Optional[OnCell] = None) -> Dict[str, CellOutcome]:
        """Materialise every task; returns ``digest -> CellOutcome``."""
        on_cell = on_cell or (lambda task, outcome: None)
        outcomes: Dict[str, CellOutcome] = {}

        def finish(task: CellTask, outcome: CellOutcome) -> None:
            outcomes[task.digest] = outcome
            on_cell(task, outcome)

        pending: List[CellTask] = []
        for task in tasks:
            value = self.runner.read_cell(task.kind, task.payload, task.digest)
            if value is not None:
                finish(task, CellOutcome(value, "hit", 0.0, task.n_shards))
            else:
                pending.append(task)
        if not pending:
            return outcomes

        if self.runner.jobs > 1:
            native.BACKEND.kernels()  # build or load once here, before any pool forks
            self._train_zoo(pending)
        for task in pending:  # resolve shared models once, before any fork
            kind = get_cell_kind(task.kind)
            self._retrying(task, None, lambda: kind.warm(self.runner, task.payload))

        # claim each missing cell's writer lease only now, so a lease's TTL
        # covers shard compute, never the cold zoo training of the warm-up;
        # cells already being computed by another process are deferred and
        # harvested from its artifact
        owned: List[CellTask] = []
        deferred: List[CellTask] = []
        leases: Dict[str, Lease] = {}
        for task in pending:
            if not self.runner.use_cache:
                owned.append(task)
                continue
            lease = self.runner.store.try_lease(task.kind, task.digest)
            if lease is None:
                deferred.append(task)
                continue
            value = self.runner.read_cell(task.kind, task.payload, task.digest)
            if value is not None:  # published meanwhile by another process
                lease.release()
                finish(task, CellOutcome(value, "hit", 0.0, task.n_shards))
            else:
                leases[task.digest] = lease
                owned.append(task)
        try:
            if owned:
                self._compute_owned(owned, leases, finish)
        finally:
            for lease in leases.values():
                lease.release()
        for task in deferred:
            finish(task, self._collect_foreign(task))
        return outcomes

    # ------------------------------------------------------------ internals
    def _missing_units(self, tasks: List[CellTask]) -> Dict[str, TrainingUnit]:
        """The unpublished zoo units behind ``tasks``, plus those they wait for."""
        units: Dict[str, TrainingUnit] = {}

        def add(unit: TrainingUnit) -> None:
            if unit.name not in units:
                units[unit.name] = unit
                for dep in unit.after:
                    add(dep)

        requests = dict.fromkeys(r for task in tasks for r in zoo_requests(task.payload))
        for name, kwargs in requests:
            for unit in zoo_units(name, fast=self.runner.fast, **dict(kwargs)):
                add(unit)
        return {name: unit for name, unit in units.items() if not unit.path.exists()}

    def _train_zoo(self, tasks: List[CellTask]) -> None:
        """Train the cold zoo units ``tasks`` need on a fork pool (see module doc)."""
        runner = self.runner
        missing = self._missing_units(tasks)
        if len(missing) < 2 or "fork" not in multiprocessing.get_all_start_methods():
            return  # nothing to overlap: the warm-up trains as it does at jobs == 1
        waits = {
            name: {dep.name for dep in unit.after} & set(missing) for name, unit in missing.items()
        }
        # units others wait for go first; the rest keep their request order
        pending = sorted(missing, key=lambda name: not any(name in deps for deps in waits.values()))
        workers = min(runner.jobs, len(missing))
        start = perf_counter()
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_units_worker_init,
            initargs=(missing,),
        )
        inflight: Dict[Future, str] = {}
        published: Set[str] = set()

        def submit_ready() -> bool:
            """Submit every pending unit whose dependencies published; False if the pool broke."""
            for name in [name for name in pending if not waits[name]]:
                try:
                    inflight[pool.submit(_train_unit, name)] = name
                except BrokenProcessPool:
                    return False
                pending.remove(name)
            return True

        broken = False
        try:
            with TRACER.span("zoo.pool", cat="zoo", units=len(missing), workers=workers) as span:
                broken = not submit_ready()
                while inflight and not broken:
                    done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                    for future in done:
                        name = inflight.pop(future)
                        try:
                            seconds, kernels = future.result()
                        except BrokenProcessPool:
                            broken = True  # a worker died and took the pool with it
                            continue
                        except Exception as exc:
                            # left, with the units waiting for it, to the warm-up,
                            # which raises again in-process if the failure is real
                            warnings.warn(
                                f"zoo unit {name} failed on the training pool ({exc!r}); "
                                "training it in-process",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                            continue
                        published.add(name)
                        for deps in waits.values():
                            deps.discard(name)
                        if seconds is not None:
                            runner.telemetry.zoo_pool.append((name, seconds))
                        runner.telemetry.fold_worker({"kernels": kernels})
                    broken = broken or not submit_ready()
                span["published"] = len(published)
        except BaseException:
            _kill_pool(pool)  # interrupted: don't wait out the units in flight
            raise
        if broken:
            _kill_pool(pool)
        else:
            pool.shutdown(wait=True)
        runner.telemetry.zoo_pool_s += perf_counter() - start
        if broken:
            runner.telemetry.count_fault("worker_crashes")
        if len(published) < len(missing):
            runner.telemetry.count_fault("zoo_fallbacks", len(missing) - len(published))

    def _compute_owned(
        self, tasks: List[CellTask], leases: Dict[str, Lease], finish: OnCell
    ) -> None:
        runner = self.runner
        pooled = runner.jobs > 1
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        shard_values: Dict[str, List[Any]] = {t.digest: [None] * t.n_shards for t in tasks}
        shard_left: Dict[str, int] = {t.digest: t.n_shards for t in tasks}
        shard_seconds: Dict[str, float] = {t.digest: 0.0 for t in tasks}
        done_shards: Set[Tuple[str, int]] = set()
        total_shards = sum(t.n_shards for t in tasks)
        retries = shard_retries()
        timeout = shard_timeout()
        workers = min(runner.jobs, total_shards)
        initargs = (
            runner.fast,
            str(runner.cache_dir),
            runner.use_cache,
            runner.shard_size,
            TRACER.worker_spool_dir(),
        )

        def spawn_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_worker_init,
                initargs=initargs,
            )

        def complete_shard(
            task: CellTask,
            index: int,
            value: Any,
            seconds: float,
            stats: Optional[Dict[str, Any]],
        ) -> None:
            key = (task.digest, index)
            if key in done_shards:  # resubmission raced its original
                return
            done_shards.add(key)
            runner.telemetry.fold_worker(stats)
            digest = task.digest
            shard_values[digest][index] = value
            shard_seconds[digest] += seconds
            shard_left[digest] -= 1
            if shard_left[digest] == 0:
                with TRACER.span(
                    "cell.merge",
                    cat="engine",
                    kind=task.kind,
                    digest=digest[:DIGEST_WIDTH],
                    shards=task.n_shards,
                ):
                    merged = runner.merge_cell(task.kind, task.payload, shard_values.pop(digest))
                    runner.write_cell(task.kind, digest, merged, task.payload)
                lease = leases.pop(digest, None)
                if lease is not None:
                    lease.release()
                finish(task, CellOutcome(merged, "computed", shard_seconds[digest], task.n_shards))
            else:
                # a long multi-shard cell keeps proving its writer is alive,
                # so the lease TTL bounds shard time, not cell time, before a
                # waiter may take over.  A refresh that fails (TTL blown
                # while the pool was being rebuilt, or an injected
                # ``store.lease_steal``) re-claims the digest so the eventual
                # publication is still announced to waiters.
                lease = leases.get(digest)
                if lease is not None and not lease.refresh():
                    leases.pop(digest, None)
                    fresh = runner.store.try_lease(task.kind, digest)
                    if fresh is not None:
                        leases[digest] = fresh
                        runner.telemetry.count_fault("lease_reacquired")

        pool: Optional[ProcessPoolExecutor] = spawn_pool() if pooled else None
        inflight: Dict[Future, _ShardRun] = {}
        respawns = 0

        def submit(run: _ShardRun) -> None:
            future = pool.submit(
                _run_shard, run.task.kind, run.task.payload, run.index, run.task.digest, run.attempt
            )
            run.deadline = monotonic() + timeout if timeout is not None else None
            inflight[future] = run

        def retry(run: _ShardRun, cause: str, exc: Optional[BaseException]) -> None:
            if run.attempt >= retries:
                raise _exhausted(run.task, run.index, cause, run.attempt + 1, exc) from exc
            run.attempt += 1
            runner.telemetry.count_fault("shard_retries")
            submit(run)

        try:
            if pool is not None:
                for task in tasks:  # already cost-ordered by ExecutionPlan.scheduled
                    for index in range(task.n_shards):
                        submit(_ShardRun(task, index))
            while len(done_shards) < total_shards and pool is not None:
                if not inflight:  # defensive: nothing running, nothing queued
                    break
                poll: Optional[float] = None
                if timeout is not None:
                    deadlines = [r.deadline for r in inflight.values() if r.deadline is not None]
                    if deadlines:
                        poll = max(0.01, min(deadlines) - monotonic())
                done, _ = wait(set(inflight), timeout=poll, return_when=FIRST_COMPLETED)
                crashed: List[_ShardRun] = []
                failed: List[Tuple[_ShardRun, BaseException]] = []
                pool_broken = False
                for future in done:
                    run = inflight.pop(future)
                    if (run.task.digest, run.index) in done_shards:
                        continue
                    try:
                        value, seconds, stats = future.result()
                    except BrokenProcessPool:
                        # a worker died abruptly; every pending future in the
                        # pool fails with this, guilty shard and bystanders
                        # alike -- all are retried on the rebuilt pool
                        pool_broken = True
                        crashed.append(run)
                        continue
                    except Exception as exc:
                        failed.append((run, exc))
                        continue
                    complete_shard(run.task, run.index, value, seconds, stats)
                expired: List[_ShardRun] = []
                if timeout is not None:
                    now = monotonic()
                    for future, run in list(inflight.items()):
                        if run.deadline is not None and now >= run.deadline and not future.done():
                            expired.append(run)
                            del inflight[future]
                    if expired:
                        runner.telemetry.count_fault("shard_timeouts", len(expired))
                if pool_broken or expired:
                    if pool_broken:
                        runner.telemetry.count_fault("worker_crashes")
                    # a broken pool is unusable; a blown deadline means a
                    # wedged worker, and running futures can't be cancelled:
                    # either way the pool dies.  Innocent inflight shards
                    # lose their partial work and rerun at the same attempt.
                    survivors = list(inflight.values())
                    inflight.clear()
                    _kill_pool(pool)
                    pool = None
                    respawns += 1
                    if respawns > POOL_RESPAWN_LIMIT:
                        runner.telemetry.count_fault("degraded_serial")
                        warnings.warn(
                            f"worker pool died {respawns} times; computing the remaining "
                            f"{total_shards - len(done_shards)} shard(s) serially in-process",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        break
                    runner.telemetry.count_fault("pool_respawns")
                    time.sleep(backoff_seconds(respawns))
                    pool = spawn_pool()
                    for run in expired:
                        retry(run, "timed out", None)
                    for run in crashed:
                        retry(run, "crashed", None)
                    for run in survivors:
                        submit(run)
                elif failed:
                    for run, exc in failed:
                        time.sleep(backoff_seconds(run.attempt + 1))
                        retry(run, "failed", exc)
        except BaseException:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            if pool is not None:
                pool.shutdown(wait=True)

        # in-process: every shard at jobs == 1, or whatever a pool that kept
        # dying left over.  compute_shard here has no crash/hang injection
        # sites (those live in the worker-side _run_shard), so a chaos
        # schedule cannot take the parent down with the workers.
        for task in tasks:
            for index in range(task.n_shards):
                if (task.digest, index) not in done_shards:
                    value, seconds = self._shard_in_process(task, index)
                    complete_shard(task, index, value, seconds, None)

    def _retrying(self, task: CellTask, shard: Optional[int], step: Callable[[], Any]) -> Any:
        """Run one in-process ``step`` of ``task`` under the bounded shard retry.

        Serves the warm-up (``shard=None``), every shard at ``jobs == 1``,
        the shards a dying pool left over and a taken-over cell's shards.  A
        transient failure (an injected ``kernel.build_fail``, a flaky IO
        error) gets ``REPRO_SHARD_RETRIES`` fresh attempts with backoff; a
        deterministic bug exhausts them and raises
        :class:`CellExecutionError` naming the cell, shard and owner.
        """
        retries = shard_retries()
        attempt = 0
        while True:
            try:
                return step()
            except Exception as exc:
                if attempt >= retries:
                    raise _exhausted(task, shard, "failed", attempt + 1, exc) from exc
                attempt += 1
                self.runner.telemetry.count_fault("shard_retries")
                time.sleep(backoff_seconds(attempt))

    def _shard_in_process(self, task: CellTask, index: int) -> Tuple[Any, float]:
        """Compute one shard in this process; returns ``(value, seconds)``."""
        kind = get_cell_kind(task.kind)

        def compute() -> Any:
            with _SHARD_LOCK:
                return kind.compute_shard(self.runner, task.payload, index)

        start = perf_counter()
        with TRACER.span(
            "shard", cat="engine", kind=task.kind, digest=task.digest[:DIGEST_WIDTH], shard=index
        ):
            value = self._retrying(task, index, compute)
        return value, perf_counter() - start

    def _collect_foreign(self, task: CellTask) -> CellOutcome:
        """Wait out another process computing ``task``, then read its artifact.

        Polls the artifact optimistically (we hold no leases by now, so this
        cannot deadlock).  If the foreign writer died without publishing, its
        lease falls to us and the cell's shards are computed in-process here.
        """
        runner = self.runner
        start = perf_counter()
        value, lease = runner.store.wait_for(task.kind, task.digest)
        if value is not None:
            return CellOutcome(value, "hit", 0.0, task.n_shards)
        with lease:
            value = runner.read_cell(task.kind, task.payload, task.digest)
            if value is not None:
                return CellOutcome(value, "hit", 0.0, task.n_shards)
            shards = [self._shard_in_process(task, i)[0] for i in range(task.n_shards)]
            value = runner.merge_cell(task.kind, task.payload, shards)
            runner.write_cell(task.kind, task.digest, value, task.payload)
            return CellOutcome(value, "computed", perf_counter() - start, task.n_shards)
