"""The one executor behind every :class:`Runner`, whatever its ``jobs``.

A run's work is two kinds of task on one schedule: the zoo *training units*
its cells need that are not published yet
(:func:`repro.experiments.zoo.zoo_units`, one cached ``.npz`` each), and the
shard subtasks of every planned cell task that missed the cache (see
:mod:`repro.parallel.plan`).  With ``jobs > 1`` they run on one
``ProcessPoolExecutor`` of ``jobs`` workers; with ``jobs == 1`` nothing
forks and the parent runs the same schedule in-process.  The parent keeps
at most ``jobs`` tasks in flight, so it always chooses what a free worker
takes next (:class:`_ReadyQueue`):

1. a unit another unit waits for (a LeNet before its substitutes);
2. a shard of a cell whose experiment can now complete: every unit the
   experiment's cells need has published;
3. the next unit, in the order the cells request them;
4. any other shard whose cell is ready (every unit it needs published).

So a cold run computes, and the runner writes, the results that need no
model or only a small one while the long units train.  The parent merges
each cell's ordered shard results, writes the artifact atomically and
streams a progress event.  Because shard decomposition and per-shard RNG
seeding are pure functions of cell content (:mod:`repro.parallel.sharding`),
every ``jobs`` value produces bit-for-bit the same values, and a unit trained
on the pool is byte-identical to one trained in-process.

A worker warms what a shard needs on first use (:meth:`CellKind.warm`,
memoised per process): it loads the zoo models, resolves the hardware
variants and primes their GEMM kernels, whose multiplier tables it reads
from the zoo cache (:func:`repro.arith.fpm.lut_cache_path`).  Before the
pool forks, the parent builds or loads the native kernels
(:mod:`repro.nn.native`), so every worker inherits the loaded library, or
the numpy fallback decision, instead of resolving its own.

Coordination with *other* processes -- pool workers of a second CLI
invocation or service job sharing the cache directory -- uses the writer
leases of :mod:`repro.store`: a cell's lease is claimed when its first shard
is dispatched (refreshed as shards complete, so long cells never look
abandoned), and a cell being computed elsewhere is *deferred* here and
collected from the cache once the foreign writer publishes it, instead of
being recomputed.  A cell is dispatched only once every unit it needs has
published, so no lease is ever held while a unit the cell needs trains: a
lease's TTL bounds shard compute, never a cold zoo's training.  A foreign
writer that crashes mid-cell loses its lease and the cell is computed here
-- a wedged cache cannot outlive its writer.

Fault tolerance (see ``docs/faults.md``): every in-process step -- each
shard at ``jobs == 1``, the shards of a degraded pool and of a taken-over
cell, a unit trained in the parent -- runs under one bounded retry
(``REPRO_SHARD_RETRIES`` attempts after the first, with exponential
backoff).  Pool shards run under the same budget plus an optional
wall-clock deadline (``REPRO_SHARD_TIMEOUT``); units carry no deadline.  A
worker that dies (segfault, OOM kill, injected ``worker.crash``) breaks the
pool -- the engine respawns it and resubmits the lost shards with
exponential backoff; a worker that wedges (injected ``shard.hang``, a stuck
syscall) blows its shard's deadline, and since a running future cannot be
cancelled the pool is killed outright and rebuilt.  A unit still in flight
on a pool killed or rebuilt that way is resubmitted.  A unit the pool fails
to publish -- its training raised, or its worker died (``worker.crash`` at
key ``zoo:<unit>``; a death fails every task in flight, so the engine
cannot tell the guilty unit from a bystander) -- is trained by the parent
instead, with the same bits, and so is every unit that waits for it; each
counts in ``faults["zoo_fallbacks"]``.  After
:data:`~repro.faults.policy.POOL_RESPAWN_LIMIT` rebuilds the engine stops
trusting process isolation and runs the remaining units and shards
in-process -- slower, but the run completes with identical bits.  Every
recovery action lands in the run telemetry's ``faults`` counters, so a
chaos run can *prove* what it survived.

Start-method caveat: ``fork`` also carries *runtime* registry registrations
(custom zoo entries, specs registered from a script) and the run's training
units into the workers.  On platforms without ``fork`` the ``spawn``
fallback re-imports the package fresh, so only registrations performed at
import time (the catalog, or modules imported by your entry point) are
visible to workers, and the parent trains the units itself -- register
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
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

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
    of *which* experiment died without parsing the message.  A zoo unit that
    fails for good is reported through the first cell that needs it.
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
    task: CellTask,
    step: str,
    cause: str,
    attempts: int,
    exc: Optional[BaseException],
    shard: Optional[int] = None,
) -> CellExecutionError:
    """The error for a shard or zoo unit (``step``) of ``task`` out of retries."""
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
_WORKER_UNITS: Dict[str, TrainingUnit] = {}


def _worker_init(
    fast: bool,
    cache_dir: str,
    use_cache: bool,
    shard_size: int,
    trace_dir: Optional[str] = None,
    units: Optional[Dict[str, TrainingUnit]] = None,
) -> None:
    """Build the per-process runner; resolves registries exactly once.

    ``trace_dir`` (set when the parent run is traced) points the worker's
    tracer at the run's spool directory, so worker spans land next to the
    parent's and are merged at run end.  ``units`` are the run's training
    units; they arrive by fork, never pickled.
    """
    global _WORKER_RUNNER, _WORKER_UNITS
    import repro.pipeline  # populates kind/cell/zoo/attack registries

    if trace_dir is not None:
        TRACER.attach(trace_dir)
    _WORKER_RUNNER = repro.pipeline.Runner(
        fast=fast, cache_dir=cache_dir, use_cache=use_cache, jobs=1, shard_size=shard_size
    )
    _WORKER_UNITS = units or {}


def _run_shard(
    kind_name: str,
    payload: Dict[str, Any],
    shard_index: int,
    digest: str = "",
    attempt: int = 0,
) -> Tuple[Any, float, Dict[str, Any]]:
    """Warm what the shard needs, then compute it; returns ``(value, seconds, stats)``.

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
    kind = get_cell_kind(kind_name)
    start = perf_counter()
    with TRACER.span(
        "shard",
        cat="engine",
        kind=kind_name,
        digest=digest[:DIGEST_WIDTH],
        shard=shard_index,
    ):
        kind.warm(_WORKER_RUNNER, payload)
        value = kind.compute_shard(_WORKER_RUNNER, payload, shard_index)
    stats = {
        "pid": os.getpid(),
        "kernels": KERNEL_STATS.delta(kernel_mark),
        "queries": QUERY_STATS.delta(query_mark),
    }
    return value, perf_counter() - start, stats


def _train_unit(name: str) -> Tuple[Optional[float], Dict[str, Any]]:
    """Train (or, if published meanwhile, load) one zoo unit in a worker.

    Returns the seconds this worker spent training it (``None`` if it only
    loaded it) and ``stats``: the worker's pid and its kernel-counter delta,
    which the parent folds into the run telemetry (a DA-victim substitute
    queries the approximate kernels while it trains).
    """
    FAULTS.maybe_crash(f"zoo:{name}")
    trained_mark = len(TRAINED_UNITS)
    kernel_mark = KERNEL_STATS.snapshot()
    _WORKER_UNITS[name].resolve()
    trained = TRAINED_UNITS[trained_mark:]
    seconds = sum(s for _, s in trained) if trained else None
    return seconds, {"pid": os.getpid(), "kernels": KERNEL_STATS.delta(kernel_mark)}


@dataclass
class _ShardRun:
    """One shard attempt in flight: identity, retry count, wall deadline."""

    task: CellTask
    index: int
    attempt: int = 0
    deadline: Optional[float] = None  # monotonic, None when untimed


@dataclass
class _UnitRun:
    """One zoo unit in flight (units carry no deadline)."""

    name: str


_Run = Union[_ShardRun, _UnitRun]


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
class _ReadyQueue:
    """The run's undispatched units and shards, and which one goes next.

    ``units`` are the unpublished training units the cells need, ``needs``
    each cell's unpublished units and ``groups`` the cells of each
    experiment.  :meth:`pop` applies the policy of the module docstring.
    Units named in :attr:`parent` are trained by the parent process.
    """

    def __init__(
        self,
        tasks: List[CellTask],
        units: Dict[str, TrainingUnit],
        needs: Dict[str, Set[str]],
        groups: Iterable[Iterable[str]],
    ):
        self.tasks = tasks
        self.units = units
        self.needs = needs
        self.waits = {
            name: {dep.name for dep in unit.after} & set(units) for name, unit in units.items()
        }
        # units others wait for go first; the rest keep their request order
        waited = {dep for deps in self.waits.values() for dep in deps}
        self.unit_order = sorted(units, key=lambda name: name not in waited)
        self.shards = {task.digest: list(range(task.n_shards)) for task in tasks}
        pending = [set(group) & set(needs) for group in groups]
        self.groups = {d: [g for g in pending if d in g] or [{d}] for d in needs}
        self.parent: Set[str] = set()

    def pop(self) -> Union[str, Tuple[CellTask, int], None]:
        """The next unit name or ``(task, shard index)`` to dispatch, if any is ready."""
        ready = [name for name in self.unit_order if not self.waits[name]]
        waited = {dep for deps in self.waits.values() for dep in deps}
        cells = [t for t in self.tasks if self.shards[t.digest] and not self.needs[t.digest]]
        for name in ready:
            if name in waited:
                return self._unit(name)
        for task in cells:
            if any(all(not self.needs[d] for d in g) for g in self.groups[task.digest]):
                return task, self.shards[task.digest].pop(0)
        if ready:
            return self._unit(ready[0])
        if cells:
            return cells[0], self.shards[cells[0].digest].pop(0)
        return None

    def _unit(self, name: str) -> str:
        self.unit_order.remove(name)
        return name

    def publish(self, name: str) -> None:
        """Unit ``name`` has published: whatever waited for it may go."""
        for deps in (*self.waits.values(), *self.needs.values()):
            deps.discard(name)
        self.waits.pop(name, None)

    def to_parent(self, name: str) -> int:
        """Leave ``name`` and every unit waiting for it to the parent; returns how many are new."""
        moved = {name}
        while True:
            more = {n for n, deps in self.waits.items() if deps & moved} - moved
            if not more:
                break
            moved |= more
        fresh = moved - self.parent
        self.parent |= moved
        if name not in self.unit_order:  # dispatched: back in line, first
            self.unit_order.insert(0, name)
        return len(fresh)

    def drop(self, digest: str) -> None:
        """Dispatch no more shards of ``digest`` (read from the cache, or deferred)."""
        self.shards[digest] = []

    def needer(self, name: str) -> CellTask:
        """The first cell task that needs unit ``name`` (it names a unit's failure)."""
        return next((t for t in self.tasks if name in self.needs[t.digest]), self.tasks[0])


class ParallelEngine:
    """Executes a run's unique cell tasks and the zoo units they need on ``runner.jobs`` workers."""

    def __init__(self, runner):
        self.runner = runner

    def execute(
        self,
        tasks: List[CellTask],
        on_cell: Optional[OnCell] = None,
        groups: Optional[Iterable[Iterable[str]]] = None,
    ) -> Dict[str, CellOutcome]:
        """Materialise every task; returns ``digest -> CellOutcome``.

        ``groups`` holds the digests of each experiment of the run: a cell
        whose experiment can complete goes before the units nobody waits for
        (see the module docstring).  ``None`` makes each cell its own group.
        """
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
            native.BACKEND.kernels()  # build or load once here, before the pool forks
        units, needs = self._missing_units(pending)
        queue = _ReadyQueue(pending, units, needs, groups if groups is not None else ())
        leases: Dict[str, Lease] = {}
        deferred: List[CellTask] = []
        try:
            self._run(queue, leases, deferred, finish)
        finally:
            for lease in leases.values():
                lease.release()
        for task in deferred:
            finish(task, self._collect_foreign(task))
        return outcomes

    # ------------------------------------------------------------ internals
    def _missing_units(
        self, tasks: List[CellTask]
    ) -> Tuple[Dict[str, TrainingUnit], Dict[str, Set[str]]]:
        """The unpublished zoo units behind ``tasks``, and each task's share of them.

        A task needs the units of every zoo entry its payload resolves, and
        the units those wait for.
        """
        found: Dict[Any, Dict[str, TrainingUnit]] = {}

        def closure(request) -> Dict[str, TrainingUnit]:
            if request not in found:
                out: Dict[str, TrainingUnit] = {}
                name, kwargs = request
                stack = zoo_units(name, fast=self.runner.fast, **dict(kwargs))
                while stack:
                    unit = stack.pop(0)
                    if unit.name not in out:
                        out[unit.name] = unit
                        stack.extend(unit.after)
                found[request] = out
            return found[request]

        units: Dict[str, TrainingUnit] = {}
        needs: Dict[str, Set[str]] = {}
        for task in tasks:
            needs[task.digest] = set()
            for request in zoo_requests(task.payload):
                for name, unit in closure(request).items():
                    units.setdefault(name, unit)
                    needs[task.digest].add(name)
        missing = {name: unit for name, unit in units.items() if not unit.path.exists()}
        return missing, {digest: names & set(missing) for digest, names in needs.items()}

    def _run(
        self,
        queue: _ReadyQueue,
        leases: Dict[str, Lease],
        deferred: List[CellTask],
        finish: OnCell,
    ) -> None:
        """Run every unit and shard of ``queue``, on the pool or in this process."""
        runner = self.runner
        telemetry = runner.telemetry
        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if fork else "spawn")
        tasks = queue.tasks
        shard_values: Dict[str, List[Any]] = {t.digest: [None] * t.n_shards for t in tasks}
        shard_left: Dict[str, int] = {t.digest: t.n_shards for t in tasks}
        shard_seconds: Dict[str, float] = {t.digest: 0.0 for t in tasks}
        done_shards: Set[Tuple[str, int]] = set()
        claimed: Set[str] = set()
        retries = shard_retries()
        timeout = shard_timeout()
        workers = min(runner.jobs, sum(t.n_shards for t in tasks) + len(queue.units))
        initargs = (
            runner.fast,
            str(runner.cache_dir),
            runner.use_cache,
            runner.shard_size,
            TRACER.worker_spool_dir(),
            queue.units if fork else None,
        )
        if not fork:  # the units cannot travel to spawned workers
            queue.parent.update(queue.units)

        def spawn_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_worker_init,
                initargs=initargs,
            )

        def claim(task: CellTask) -> bool:
            """Claim ``task``'s lease before its first shard; False if it needs no compute here."""
            if task.digest in claimed:
                return True
            claimed.add(task.digest)
            if not runner.use_cache:
                return True
            lease = runner.store.try_lease(task.kind, task.digest)
            if lease is None:  # computed by another process: harvested at the end
                queue.drop(task.digest)
                deferred.append(task)
                return False
            value = runner.read_cell(task.kind, task.payload, task.digest)
            if value is not None:  # published meanwhile by another process
                lease.release()
                queue.drop(task.digest)
                finish(task, CellOutcome(value, "hit", 0.0, task.n_shards))
                return False
            leases[task.digest] = lease
            return True

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
            telemetry.fold_worker(stats)
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
                        telemetry.count_fault("lease_reacquired")

        def publish(
            name: str, seconds: Optional[float] = None, stats: Optional[Dict[str, Any]] = None
        ) -> None:
            """Unit ``name`` has published; ``seconds`` and ``stats`` come from a pool worker."""
            if seconds is not None and stats is not None:
                telemetry.zoo_pool.append((name, seconds, stats["pid"]))
            telemetry.fold_worker(stats)
            telemetry.zoo_published()
            queue.publish(name)

        def to_parent(name: str) -> None:
            telemetry.count_fault("zoo_fallbacks", queue.to_parent(name))

        pool: Optional[ProcessPoolExecutor] = spawn_pool() if runner.jobs > 1 else None
        inflight: Dict[Future, _Run] = {}
        requeued: List[_Run] = []  # lost to a dead pool: dispatched again first
        respawns = 0

        def next_run() -> Optional[_Run]:
            if requeued:
                return requeued.pop(0)
            item = queue.pop()
            if item is None:
                return None
            return _UnitRun(item) if isinstance(item, str) else _ShardRun(*item)

        def start(run: _Run) -> bool:
            """Dispatch ``run`` to the pool, or run it here and now; False if the pool is broken."""
            if isinstance(run, _UnitRun):
                telemetry.zoo_started()
                if pool is None or run.name in queue.parent:
                    self._train_in_process(queue, run.name)
                    publish(run.name)
                    return True
                call: Tuple[Any, ...] = (_train_unit, run.name)
            else:
                if not claim(run.task):
                    return True
                if pool is None:
                    value, seconds = self._shard_in_process(run.task, run.index)
                    complete_shard(run.task, run.index, value, seconds, None)
                    return True
                task = run.task
                call = (_run_shard, task.kind, task.payload, run.index, task.digest, run.attempt)
                run.deadline = monotonic() + timeout if timeout is not None else None
            try:
                inflight[pool.submit(*call)] = run
            except BrokenProcessPool:  # a worker died since the last wait
                requeued.insert(0, run)
                return False
            return True

        def retry(run: _ShardRun, cause: str, exc: Optional[BaseException]) -> None:
            if run.attempt >= retries:
                raise _exhausted(
                    run.task, f"shard {run.index}", cause, run.attempt + 1, exc, run.index
                ) from exc
            run.attempt += 1
            telemetry.count_fault("shard_retries")
            requeued.append(run)

        def pool_died(crashed: List[_ShardRun], expired: List[_ShardRun]) -> None:
            """Kill the pool, then rebuild it -- or, past the limit, go on in-process.

            A broken pool is unusable; a blown deadline means a wedged
            worker, and running futures can't be cancelled: either way the
            pool dies.  Innocent inflight tasks lose their partial work and
            rerun at the same attempt.
            """
            nonlocal pool, respawns
            survivors = list(inflight.values())
            inflight.clear()
            _kill_pool(pool)
            pool = None
            respawns += 1
            if respawns > POOL_RESPAWN_LIMIT:
                telemetry.count_fault("degraded_serial")
                warnings.warn(
                    f"worker pool died {respawns} times; running the rest of the run "
                    "serially in-process",
                    RuntimeWarning,
                    stacklevel=3,
                )
                # units never expire, and crashed ones went to the parent
                lost_units = [r.name for r in survivors if isinstance(r, _UnitRun)]
                for name in queue.unit_order + lost_units:
                    to_parent(name)
                requeued.extend(
                    r for r in [*expired, *crashed, *survivors] if isinstance(r, _ShardRun)
                )
                return
            telemetry.count_fault("pool_respawns")
            time.sleep(backoff_seconds(respawns))
            pool = spawn_pool()
            for run in expired:
                retry(run, "timed out", None)
            for run in crashed:
                retry(run, "crashed", None)
            requeued.extend(survivors)

        try:
            while True:
                broken = False
                while len(inflight) < workers and not broken:
                    run = next_run()
                    if run is None:
                        break
                    broken = not start(run)
                if broken and not inflight:  # an idle worker died: no future tells
                    telemetry.count_fault("worker_crashes")
                    pool_died([], [])
                    continue
                if not inflight:
                    break
                poll: Optional[float] = None
                if timeout is not None:
                    deadlines = [
                        r.deadline
                        for r in inflight.values()
                        if isinstance(r, _ShardRun) and r.deadline is not None
                    ]
                    if deadlines:
                        poll = max(0.01, min(deadlines) - monotonic())
                done, _ = wait(set(inflight), timeout=poll, return_when=FIRST_COMPLETED)
                crashed: List[_ShardRun] = []
                failed: List[Tuple[_ShardRun, BaseException]] = []
                pool_broken = False
                for future in done:
                    run = inflight.pop(future)
                    if isinstance(run, _ShardRun) and (run.task.digest, run.index) in done_shards:
                        continue
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # a worker died abruptly; every pending future in the
                        # pool fails with this, guilty task and bystanders
                        # alike -- shards are retried on the rebuilt pool,
                        # units are left to the parent
                        pool_broken = True
                        if isinstance(run, _UnitRun):
                            to_parent(run.name)
                        else:
                            crashed.append(run)
                        continue
                    except Exception as exc:
                        if isinstance(run, _UnitRun):
                            # the parent trains it, and raises again in-process
                            # if the failure is real
                            warnings.warn(
                                f"zoo unit {run.name} failed on the pool ({exc!r}); "
                                "training it in-process",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                            to_parent(run.name)
                        else:
                            failed.append((run, exc))
                        continue
                    if isinstance(run, _UnitRun):
                        publish(run.name, *result)
                    else:
                        complete_shard(run.task, run.index, *result)
                expired: List[_ShardRun] = []
                if timeout is not None:
                    now = monotonic()
                    for future, run in list(inflight.items()):
                        deadline = run.deadline if isinstance(run, _ShardRun) else None
                        if deadline is not None and now >= deadline and not future.done():
                            expired.append(run)
                            del inflight[future]
                    if expired:
                        telemetry.count_fault("shard_timeouts", len(expired))
                if pool_broken or expired:
                    if pool_broken:
                        telemetry.count_fault("worker_crashes")
                    pool_died(crashed, expired)
                elif failed:
                    for run, exc in failed:
                        time.sleep(backoff_seconds(run.attempt + 1))
                        retry(run, "failed", exc)
        except BaseException:
            if pool is not None:
                _kill_pool(pool)  # interrupted: don't wait out the units in flight
            raise
        if pool is not None:
            pool.shutdown(wait=True)

    def _retrying(
        self, task: CellTask, step: str, run: Callable[[], Any], shard: Optional[int] = None
    ) -> Any:
        """Run one in-process ``step`` of ``task`` under the bounded shard retry.

        Serves every shard at ``jobs == 1``, the shards a dying pool left
        over, a taken-over cell's shards and the units the parent trains.  A
        transient failure (an injected ``kernel.build_fail``, a flaky IO
        error) gets ``REPRO_SHARD_RETRIES`` fresh attempts with backoff; a
        deterministic bug exhausts them and raises
        :class:`CellExecutionError` naming the cell, the step and the owner.
        """
        retries = shard_retries()
        attempt = 0
        while True:
            try:
                return run()
            except Exception as exc:
                if attempt >= retries:
                    raise _exhausted(task, step, "failed", attempt + 1, exc, shard) from exc
                attempt += 1
                self.runner.telemetry.count_fault("shard_retries")
                time.sleep(backoff_seconds(attempt))

    def _train_in_process(self, queue: _ReadyQueue, name: str) -> None:
        """Train (or load) unit ``name`` in this process."""
        self._retrying(queue.needer(name), f"zoo unit {name}", queue.units[name].resolve)

    def _shard_in_process(self, task: CellTask, index: int) -> Tuple[Any, float]:
        """Warm what a shard needs and compute it in this process; returns ``(value, seconds)``."""
        kind = get_cell_kind(task.kind)

        def compute() -> Any:
            with _SHARD_LOCK:
                kind.warm(self.runner, task.payload)
                return kind.compute_shard(self.runner, task.payload, index)

        start = perf_counter()
        with TRACER.span(
            "shard", cat="engine", kind=task.kind, digest=task.digest[:DIGEST_WIDTH], shard=index
        ):
            value = self._retrying(task, f"shard {index}", compute, index)
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
