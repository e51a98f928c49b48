"""Chaos tests for ``repro.faults``: injection, retry/timeout, resume.

The contract under test (docs/faults.md): any run that completes -- however
many injected crashes, hangs, torn writes and stolen leases it survived --
produces results byte-identical to a clean run, and an interrupted run's
manifest plus ``--resume`` account for exactly the work already done.
"""

import asyncio
import json
import multiprocessing
import pickle
import shutil
import threading
import re
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro.parallel.engine as engine
from repro.arith.fpm import AxFPM
from repro.arith.kernels import FusedLutGemmKernel
from repro.cli import main
from repro.experiments.zoo import ZOO, zoo_units
from repro.faults import (
    FAULT_POINTS,
    FAULT_STATS,
    FAULTS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    RunManifest,
    backoff_seconds,
    job_retries,
    lease_poll,
    parse_fault_specs,
    shard_retries,
    shard_timeout,
)
from repro.nn import native
from repro.parallel.engine import CellExecutionError
from repro.parallel.plan import build_plan
from repro.pipeline import (
    NONDETERMINISTIC_RESULT_FIELDS,
    CellKind,
    ExperimentSpec,
    Runner,
    get_experiment,
)
from repro.pipeline.runner import clear_model_caches
from repro.service.jobs import JobQueue
from repro.store import ArtifactStore

CHEAP_EXPERIMENTS = ["fig04_approx_convolution", "table07_energy_delay"]

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: chaos pool tests arm the parent's injector singleton and rely on ``fork``
#: carrying it into the workers; under ``spawn`` a worker re-reads the
#: (unset) environment and would be disarmed
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="chaos pool tests need fork to inherit the armed injector"
)

#: without a compiler no fused-GEMM kernel is built, so its fault site never runs
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


@pytest.fixture(autouse=True)
def disarm_faults():
    """Every test starts and ends with the injector disarmed."""
    FAULTS.configure(None)
    yield
    FAULTS.configure(None)


def make_runner(tmp_path, tag="cells", **kwargs):
    kwargs.setdefault("cache_dir", tmp_path / tag)
    return Runner(fast=True, **kwargs)


def deterministic_json(result):
    payload = result.to_json()
    for field in NONDETERMINISTIC_RESULT_FIELDS:
        payload.pop(field)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture()
def tiny_zoo_entry(tiny_model, digit_split):
    name = "faults_test_zoo"
    ZOO.register(name, lambda fast=False: (tiny_model, digit_split), overwrite=True)
    yield name
    ZOO.unregister(name)


# ------------------------------------------------------------------ injector
def test_parse_fault_specs():
    specs = parse_fault_specs("worker.crash:0.5:7, shard.hang:1.0")
    assert specs["worker.crash"].probability == 0.5
    assert specs["worker.crash"].seed == 7
    assert specs["shard.hang"].seed == 0  # seed is optional
    assert parse_fault_specs(None) == {} and parse_fault_specs("  ") == {}
    with pytest.raises(ValueError, match="unknown fault point"):
        parse_fault_specs("worker.cras:0.5")
    with pytest.raises(ValueError, match="probability"):
        parse_fault_specs("worker.crash:nope")
    with pytest.raises(ValueError, match="out of"):
        parse_fault_specs("worker.crash:1.5")
    with pytest.raises(ValueError, match="expected point:probability"):
        parse_fault_specs("worker.crash")
    with pytest.raises(ValueError, match="bad seed"):
        parse_fault_specs("worker.crash:0.5:x")


def test_coin_is_deterministic_and_fires_once_per_key():
    a = FaultInjector("store.torn_write:0.5:3")
    b = FaultInjector("store.torn_write:0.5:3")
    keys = [f"cells:{i}" for i in range(64)]
    decisions = [a.should_inject("store.torn_write", k) for k in keys]
    assert any(decisions) and not all(decisions)  # the coin actually splits
    # same (seed, point, key) on a fresh injector: identical schedule
    assert decisions == [b.should_inject("store.torn_write", k) for k in keys]
    # in-process once-per-key guard: a retry at the same site passes
    assert not any(a.should_inject("store.torn_write", k) for k in keys)
    # a different seed draws a different schedule
    c = FaultInjector("store.torn_write:0.5:4")
    assert decisions != [c.should_inject("store.torn_write", k) for k in keys]


def test_disarmed_injector_counts_nothing():
    mark = FAULT_STATS.snapshot()
    assert not FAULTS.enabled
    assert not FAULTS.should_inject("worker.crash", "any")
    FAULTS.maybe_raise("kernel.build_fail", "any")  # no-op, must not raise
    assert not any(FAULT_STATS.delta(mark).values())
    # armed-but-different-point evaluations are also free
    FAULTS.configure("shard.hang:1.0")
    assert not FAULTS.should_inject("worker.crash", "any")
    assert not any(FAULT_STATS.delta(mark).values())


def test_armed_injector_counts_checks_and_injections():
    FAULTS.configure("kernel.build_fail:1.0")
    mark = FAULT_STATS.snapshot()
    with pytest.raises(InjectedFault) as excinfo:
        FAULTS.maybe_raise("kernel.build_fail", "axfpm8")
    assert excinfo.value.point == "kernel.build_fail"
    assert excinfo.value.key == "axfpm8"
    FAULTS.maybe_raise("kernel.build_fail", "axfpm8")  # healed: once per key
    delta = FAULT_STATS.delta(mark)
    assert delta["checks"] == 2
    assert delta["injected"] == 1
    assert delta["kernel_build_fail"] == 1


def test_injected_fault_pickles_across_process_boundary():
    # workers raise InjectedFault across the pool; unpickling re-calls
    # __init__(*args), which must round-trip the (point, key) identity
    fault = pickle.loads(pickle.dumps(InjectedFault("worker.crash", "d:0:1")))
    assert fault.point == "worker.crash"
    assert fault.key == "d:0:1"
    assert "worker.crash" in str(fault) and "d:0:1" in str(fault)


def test_every_catalog_point_parses():
    armed = ",".join(f"{point}:0.5" for point in FAULT_POINTS)
    assert set(parse_fault_specs(armed)) == set(FAULT_POINTS)


# -------------------------------------------------------------------- policy
def test_policy_env_knobs(monkeypatch):
    for var in ("REPRO_SHARD_TIMEOUT", "REPRO_SHARD_RETRIES",
                "REPRO_STORE_LEASE_POLL", "REPRO_JOB_RETRIES"):
        monkeypatch.delenv(var, raising=False)
    assert shard_timeout() is None
    assert shard_retries() == 2
    assert lease_poll() == (0.02, 0.25)
    assert job_retries() == 1

    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "30")
    assert shard_timeout() == 30.0
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "0")  # <= 0 disables
    assert shard_timeout() is None
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "bogus")
    assert shard_timeout() is None

    monkeypatch.setenv("REPRO_SHARD_RETRIES", "5")
    assert shard_retries() == 5
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "-3")  # clamped
    assert shard_retries() == 0

    monkeypatch.setenv("REPRO_STORE_LEASE_POLL", "0.05")
    assert lease_poll() == (0.05, 0.25)
    monkeypatch.setenv("REPRO_STORE_LEASE_POLL", "0.1:1.5")
    assert lease_poll() == (0.1, 1.5)
    monkeypatch.setenv("REPRO_STORE_LEASE_POLL", "2.0:0.5")  # cap >= start
    assert lease_poll() == (2.0, 2.0)
    monkeypatch.setenv("REPRO_STORE_LEASE_POLL", "junk")
    assert lease_poll() == (0.02, 0.25)

    monkeypatch.setenv("REPRO_JOB_RETRIES", "4")
    assert job_retries() == 4


def test_backoff_grows_exponentially_and_caps():
    import random

    rng = random.Random(0)
    delays = [backoff_seconds(attempt, rng) for attempt in (1, 2, 3, 10)]
    assert 0.05 * 0.75 <= delays[0] <= 0.05 * 1.25
    assert 0.10 * 0.75 <= delays[1] <= 0.10 * 1.25
    assert delays[3] <= 2.0 * 1.25  # capped


# ------------------------------------------------------------------ manifest
def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "run.manifest.json"
    manifest = RunManifest(path, label="demo", experiments=["a", "b"], cells_total=3)
    manifest.record("d1", "energy", "computed", 1.234)
    manifest.record("d2", "whitebox", "hit")
    loaded = RunManifest.load(path)  # mid-run snapshot: honest, unfinished
    assert loaded is not None and not loaded.finished
    assert loaded.cells_total == 3
    assert set(loaded.completed) == {"d1", "d2"}
    assert loaded.completed["d1"]["kind"] == "energy"
    assert loaded.completed["d1"]["seconds"] == 1.234
    manifest.finish()
    assert RunManifest.load(path).finished

    assert RunManifest.load(tmp_path / "absent.json") is None
    (tmp_path / "torn.json").write_text('{"version": 1, "comp')
    assert RunManifest.load(tmp_path / "torn.json") is None
    (tmp_path / "foreign.json").write_text(json.dumps({"version": 999}))
    assert RunManifest.load(tmp_path / "foreign.json") is None


# ------------------------------------------------------------ injection sites
def test_kernel_build_fail_fires_once_then_heals():
    # resolved before arming: at probability 1.0 a first resolution would
    # also fire at the native build's key and leave the process without the library
    native.BACKEND.kernels()
    FAULTS.configure("kernel.build_fail:1.0")
    with pytest.raises(InjectedFault):
        FusedLutGemmKernel(AxFPM(frac_bits=8))
    # the once-per-key guard lets the in-process retry succeed
    kernel = FusedLutGemmKernel(AxFPM(frac_bits=8))
    assert kernel is not None


def test_torn_write_is_detected_and_recoverable(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    FAULTS.configure("store.torn_write:1.0")
    mark = FAULT_STATS.snapshot()
    path = store.put("cells", "deadbeef", {"value": [1, 2, 3]})
    assert path.exists()
    with pytest.raises(json.JSONDecodeError):
        json.loads(path.read_text())  # the write really tore
    assert store.get("cells", "deadbeef") is None  # detected ...
    assert not path.exists()  # ... and quarantined (unlinked)
    store.put("cells", "deadbeef", {"value": [1, 2, 3]})  # retry: once per key
    assert store.get("cells", "deadbeef") == {"value": [1, 2, 3]}
    assert FAULT_STATS.delta(mark)["store_torn_write"] == 1


def test_lease_steal_fails_refresh_and_allows_reacquire(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    lease = store.try_lease("cells", "cafe01")
    assert lease is not None
    FAULTS.configure("store.lease_steal:1.0")
    assert lease.refresh() is False  # claim usurped under us
    FAULTS.configure(None)
    fresh = store.try_lease("cells", "cafe01")  # the engine's recovery move
    assert fresh is not None
    fresh.release()


# ------------------------------------------------------- engine chaos (pool)
@needs_fork
def test_crash_storm_degrades_to_serial_with_identical_results(tmp_path, monkeypatch):
    clean = make_runner(tmp_path, "clean", jobs=1).run("table07_energy_delay")
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "10")
    # probability 1.0: every pooled attempt dies, so the engine must burn
    # through its whole respawn budget and finish the shard in-parent
    FAULTS.configure("worker.crash:1.0")
    runner = make_runner(tmp_path, "chaos", jobs=2)
    with pytest.warns(RuntimeWarning, match="worker pool died"):
        chaos = runner.run("table07_energy_delay")
    faults = runner.telemetry.faults
    assert faults["worker_crashes"] == 4  # one per pool death
    assert faults["pool_respawns"] == 3  # POOL_RESPAWN_LIMIT rebuilds
    assert faults["degraded_serial"] == 1  # then gave up on the pool
    assert faults["shard_retries"] == 3
    assert deterministic_json(chaos) == deterministic_json(clean)


@needs_fork
def test_hung_shards_time_out_and_results_survive(tmp_path, monkeypatch):
    clean = make_runner(tmp_path, "clean", jobs=1).run("table07_energy_delay")
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "0.5")
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "10")
    # bound the injected sleep so a timeout-machinery bug fails the test
    # instead of wedging the suite
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "30")
    FAULTS.configure("shard.hang:1.0")
    runner = make_runner(tmp_path, "chaos", jobs=2)
    with pytest.warns(RuntimeWarning, match="worker pool died"):
        chaos = runner.run("table07_energy_delay")
    faults = runner.telemetry.faults
    assert faults["shard_timeouts"] == 4
    assert faults["pool_respawns"] == 3
    assert faults["degraded_serial"] == 1
    assert deterministic_json(chaos) == deterministic_json(clean)


def test_ci_chaos_seeds_fire_but_never_degrade(tmp_path):
    """CI's chaos-smoke legs must fire faults without exhausting the pool.

    Their coins are pure functions of the table04 fast plan's cell digests
    and zoo unit names, so a change that moves a digest can turn a leg into
    a serial run (past ``POOL_RESPAWN_LIMIT`` pool deaths) or a clean one;
    re-pick the seeds then.  The legs run ``--jobs 2`` with
    ``REPRO_SHARD_RETRIES=3``: attempts 0-3 of every shard draw a coin.
    """
    workflow = (Path(__file__).resolve().parent.parent / ".github/workflows/ci.yml").read_text()
    armed = re.findall(r'REPRO_FAULTS="([^"]*worker\.crash[^"]*)"', workflow)
    legs = [parse_fault_specs(text) for text in armed]
    assert len(legs) == 2, legs
    chaos = next(leg for leg in legs if "shard.hang" in leg)
    cold_zoo = next(leg for leg in legs if "shard.hang" not in leg)
    spec = get_experiment("table04_blackbox_mnist")
    tasks = list(build_plan(Runner(fast=True, cache_dir=tmp_path), [spec]).tasks.values())

    def firing(coin):
        """``(dispatch position, shard, attempt)`` of every shard site ``coin`` fires at."""
        return [
            (position, shard, attempt)
            for position, task in enumerate(tasks)
            for shard in range(task.n_shards)
            for attempt in range(4)
            if FaultInjector._decide(coin, f"{task.digest}:{shard}:{attempt}")
        ]

    # one crash and one hang, each at a first attempt: two pool deaths.  The
    # hung shard is dispatched after the crashed one and never beside it, so
    # the crash cannot fail it before its deadline
    (crash,) = firing(chaos["worker.crash"])
    (hang,) = firing(chaos["shard.hang"])
    assert crash[2] == hang[2] == 0
    assert hang[0] >= crash[0] + 2
    # the cold-zoo leg crashes under one substitute unit, after the LeNet
    # they both wait for has published from the pool, and at no shard
    substitutes = [
        unit
        for victim in ("exact", "da")
        for unit in zoo_units("substitute_digits", fast=True, victim=victim)
    ]
    units = {unit.name for unit in substitutes}
    units |= {dep.name for unit in substitutes for dep in unit.after}
    assert len(units) == 3, units
    zoo_crash = cold_zoo["worker.crash"]
    crashed = [name for name in units if FaultInjector._decide(zoo_crash, f"zoo:{name}")]
    assert len(crashed) == 1 and crashed[0].startswith("substitute_"), crashed
    assert not firing(zoo_crash)


@needs_fork
def test_a_pool_found_broken_at_submit_is_rebuilt(tmp_path, monkeypatch):
    # a worker can die between the engine's wait and its next submit (an
    # idle worker killed, or one whose crash no collected future reported
    # yet): the submit raises instead of returning a future
    clean = make_runner(tmp_path, "clean", jobs=1).run("table07_energy_delay")

    class BrokenOnce(engine.ProcessPoolExecutor):
        broke = False

        def submit(self, *args, **kwargs):
            if not BrokenOnce.broke:
                BrokenOnce.broke = True
                raise BrokenProcessPool("a worker died while idle")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", BrokenOnce)
    runner = make_runner(tmp_path, "chaos", jobs=2)
    result = runner.run("table07_energy_delay")
    faults = runner.telemetry.faults
    assert (faults["worker_crashes"], faults["pool_respawns"], faults["shard_retries"]) == (1, 1, 0)
    assert deterministic_json(result) == deterministic_json(clean)


def _crash_and_hang_seeds(digest):
    """Seeds at probability 0.2: a crash at one shard's first attempt, a hang at the other's.

    Neither fires at any other attempt the default retry budget reaches.
    """
    sites = [f"{digest}:{shard}:{attempt}" for shard in (0, 1) for attempt in range(3)]

    def firing(point, seed):
        return [site for site in sites if FaultInjector._decide(FaultSpec(point, 0.2, seed), site)]

    crash = next(s for s in range(1000) if firing("worker.crash", s) in ([sites[0]], [sites[3]]))
    bystander = sites[3] if firing("worker.crash", crash) == [sites[0]] else sites[0]
    return crash, next(s for s in range(1000) if firing("shard.hang", s) == [bystander])


@needs_fork
def test_a_crash_charges_every_shard_in_flight_one_retry(tmp_path, monkeypatch, tiny_zoo_entry):
    # a worker death fails every future in flight, so the engine cannot tell
    # the shard that killed the worker from a bystander: both rerun at
    # attempt+1 on the rebuilt pool, and each counts one shard retry
    spec = ExperimentSpec(
        name="faults_bystander",
        kind="whitebox",
        model=tiny_zoo_entry,
        variants=("exact",),
        attacks=(("PGD", "pgd", {"epsilon": 0.1, "steps": 3}),),
        n_samples=4,
    )
    clean = make_runner(tmp_path, "clean", shard_size=2).run(spec)
    runner = make_runner(tmp_path, jobs=2, shard_size=2)
    (task,) = build_plan(runner, [spec]).tasks.values()
    assert task.n_shards == 2
    crash, hang = _crash_and_hang_seeds(task.digest)
    # the hang keeps the bystander in flight until the crash takes it down
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "20")
    FAULTS.configure(f"worker.crash:0.2:{crash},shard.hang:0.2:{hang}")
    result = runner.run(spec)
    faults = runner.telemetry.faults
    assert (faults["worker_crashes"], faults["pool_respawns"], faults["shard_retries"]) == (1, 1, 2)
    assert faults["shard_timeouts"] == 0
    assert deterministic_json(result) == deterministic_json(clean)


@needs_fork
def test_exhausted_retries_raise_cell_identity(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "0")
    FAULTS.configure("worker.crash:1.0")
    runner = make_runner(tmp_path, "chaos", jobs=2)
    with pytest.raises(CellExecutionError) as excinfo:
        runner.run("table07_energy_delay")
    error = excinfo.value
    assert error.kind == "energy"
    assert error.digest and error.digest[:10] in str(error)
    assert error.shard == 0
    assert error.owner == "table07_energy_delay"
    assert "crashed after 1 attempt(s)" in str(error)


@needs_fork
def test_cli_reports_failing_cell_and_resume_hint(tmp_path, monkeypatch, capsys):
    # arm via the environment (what a chaos run actually does) + reload
    monkeypatch.setenv("REPRO_FAULTS", "worker.crash:1.0")
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "0")
    FAULTS.reload()
    code = main(
        [
            "run",
            "table07_energy_delay",
            "--fast",
            "--quiet",
            "--no-cache",  # force a pooled compute even with a warm store
            "--jobs",
            "2",
            "--results-dir",
            str(tmp_path / "results"),
        ]
    )
    assert code == 3  # the CLI's "cell died" exit code
    err = capsys.readouterr().err
    assert "error: energy cell" in err and "crashed" in err
    assert "--resume" in err  # the operator knows the way out


def _axfpm_build_fail_seed() -> int:
    """A ``kernel.build_fail:0.5`` seed that fires at the Ax-FPM kernel only.

    Searched rather than pinned: it must not fire at the native build's key
    (that would put the process on the numpy path instead).
    """
    for seed in range(1000):
        spec = FaultSpec("kernel.build_fail", 0.5, seed)
        if FaultInjector._decide(spec, "axfpm") and not FaultInjector._decide(
            spec, native.FAULT_KEY
        ):
            return seed
    raise AssertionError("no seed fires at axfpm alone")


@needs_cc
@needs_fork
def test_kernel_build_fault_in_a_shard_heals_at_every_jobs_value(tmp_path, tiny_zoo_entry):
    # the DA victim's fused-GEMM kernels are first built by the warm-up of
    # the first DA shard a process computes, so that is where the fault
    # fires; the shard's retry must heal it at jobs=1 (in-process, where it
    # fires once) and jobs=2 (in each pool worker that warms the DA victim,
    # each firing once: its own once-per-key guard)
    spec = ExperimentSpec(
        name="faults_da_whitebox",
        kind="whitebox",
        model=tiny_zoo_entry,
        variants=("exact", "da"),
        attacks=(("PGD", "pgd", {"epsilon": 0.1, "steps": 3}),),
        n_samples=4,
    )
    assert native.BACKEND.kernels() is not None  # the fused kernels need the library
    clear_model_caches()
    clean = make_runner(tmp_path, use_cache=False, shard_size=2).run(spec)
    seed = _axfpm_build_fail_seed()
    for jobs in (1, 2):
        clear_model_caches()  # a fresh DA variant, whose kernels build again
        FAULTS.configure(f"kernel.build_fail:0.5:{seed}")
        mark = FAULT_STATS.snapshot()
        runner = make_runner(tmp_path, jobs=jobs, use_cache=False, shard_size=2)
        result = runner.run(spec)
        if jobs == 1:
            assert FAULT_STATS.delta(mark)["kernel_build_fail"] == 1
            assert runner.telemetry.faults["shard_retries"] == 1
        else:  # fired in the workers, never in the parent
            assert FAULT_STATS.delta(mark)["kernel_build_fail"] == 0
            assert 1 <= runner.telemetry.faults["shard_retries"] <= 2
        assert deterministic_json(result) == deterministic_json(clean), jobs


def test_in_process_cell_out_of_retries_names_its_shard_and_owner(
    tmp_path, monkeypatch, tiny_zoo_entry
):
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "2")
    attempts = []
    compute_shard = CellKind.compute_shard

    def counted(self, runner, payload, shard_index):
        attempts.append(shard_index)
        return compute_shard(self, runner, payload, shard_index)

    monkeypatch.setattr(CellKind, "compute_shard", counted)
    broken = ExperimentSpec(
        name="faults_always_failing",
        kind="whitebox",
        model=tiny_zoo_entry,
        variants=("exact",),
        attacks=(("Nope", "no_such_attack", {}),),
        n_samples=2,
    )
    runner = make_runner(tmp_path, jobs=1)
    with pytest.raises(CellExecutionError) as excinfo:
        runner.run(broken)
    error = excinfo.value
    assert error.kind == "whitebox"
    assert error.shard == 0
    assert error.owner == "faults_always_failing"
    assert attempts == [0, 0, 0]  # REPRO_SHARD_RETRIES + 1
    assert runner.telemetry.faults["shard_retries"] == 2
    assert "after 3 attempt(s)" in str(error) and "no_such_attack" in str(error)


# -------------------------------------------------------- manifests & resume
def test_completed_run_writes_finished_manifest_and_resume_counts(tmp_path):
    results = tmp_path / "results"
    first = make_runner(tmp_path, jobs=1, results_dir=results)
    first.run_many(CHEAP_EXPERIMENTS)
    manifest_path = results / "fig04_approx_convolution+1.manifest.json"
    manifest = RunManifest.load(manifest_path)
    assert manifest is not None and manifest.finished
    assert len(manifest.completed) == manifest.cells_total == 2
    assert first.telemetry.faults["cells_resumed"] == 0  # nothing to resume

    again = make_runner(tmp_path, jobs=1, results_dir=results, resume=True)
    again.run_many(CHEAP_EXPERIMENTS)
    assert again.cache_misses == 0
    # every hit whose digest the previous manifest proved complete is counted
    assert again.telemetry.faults["cells_resumed"] == 2
    assert RunManifest.load(manifest_path).finished


def test_midrun_failure_leaves_partial_manifest_then_resume(
    tmp_path, monkeypatch, tiny_zoo_entry
):
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "0")
    results = tmp_path / "results"
    broken = ExperimentSpec(
        name="faults_partial",
        kind="whitebox",
        model=tiny_zoo_entry,
        variants=("exact",),
        attacks=(("Nope", "no_such_attack", {}),),
        n_samples=2,
    )
    runner = make_runner(tmp_path, jobs=1, results_dir=results)
    # equal-cost cells run in submission order: the energy cell completes,
    # then the broken attack cell kills the run
    with pytest.raises(CellExecutionError):
        runner.run_many(["table07_energy_delay", broken])
    manifest_path = results / "table07_energy_delay+1.manifest.json"
    manifest = RunManifest.load(manifest_path)
    assert manifest is not None
    assert not manifest.finished  # an interrupted run never claims otherwise
    assert manifest.cells_total == 2
    assert len(manifest.completed) == 1
    (entry,) = manifest.completed.values()
    assert entry["kind"] == "energy" and entry["status"] == "computed"

    # fix the failing spec and resume under the same run label: the energy
    # cell is proven-resumed work, only the repaired cell computes
    fixed = broken.replace(attacks=(("PGD", "pgd", {"epsilon": 0.1, "steps": 3}),))
    resumed = make_runner(tmp_path, jobs=1, results_dir=results, resume=True)
    resumed.run_many(["table07_energy_delay", fixed])
    assert resumed.telemetry.faults["cells_resumed"] == 1
    assert resumed.cache_misses == 1  # the repaired cell, nothing else
    manifest = RunManifest.load(manifest_path)
    assert manifest.finished and len(manifest.completed) == 2


# ------------------------------------------------------------- service jobs
def drain(coro):
    return asyncio.run(coro)


async def wait_terminal(job, timeout=120.0):
    deadline = time.monotonic() + timeout
    while not job.terminal:
        assert time.monotonic() < deadline, f"job stuck in {job.status}"
        await asyncio.sleep(0.02)


def test_job_retry_state_machine(tmp_path):
    """A transient first-attempt failure requeues through ``retrying``."""
    flaky_state = {"failures_left": 1}

    class FlakyRunner(Runner):
        def run_many(self, specs, on_result=None):
            if flaky_state["failures_left"] > 0:
                flaky_state["failures_left"] -= 1
                raise RuntimeError("transient boom")
            return super().run_many(specs, on_result=on_result)

    def factory(fast=False, jobs=None):
        return FlakyRunner(fast=fast, cache_dir=tmp_path / "cells", jobs=1)

    async def scenario():
        queue = JobQueue(factory, workers=1)
        queue.start()
        job = queue.submit(
            {"experiments": ["table07_energy_delay"], "fast": True, "retries": 1}
        )
        assert job.status == "pending" and job.max_retries == 1
        await wait_terminal(job)
        await queue.close()
        return queue, job

    queue, job = drain(scenario())
    assert job.status == "succeeded"
    assert job.attempts == 2
    assert queue.retries_total == 1
    statuses = [e["status"] for e in job.events if e["event"] == "status"]
    assert statuses == ["pending", "running", "retrying", "running", "succeeded"]
    retrying = next(e for e in job.events if e.get("status") == "retrying")
    assert "transient boom" in retrying["error"]
    assert retrying["attempt"] == 1 and retrying["max_retries"] == 1
    assert "elapsed_seconds" in job.snapshot()


def test_failed_job_final_event_names_the_cell(tmp_path, monkeypatch, tiny_zoo_entry):
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "0")
    broken = ExperimentSpec(
        name="faults_service_failing",
        kind="whitebox",
        model=tiny_zoo_entry,
        variants=("exact",),
        attacks=(("Nope", "no_such_attack", {}),),
        n_samples=2,
    )

    def factory(fast=False, jobs=None):
        return Runner(fast=fast, cache_dir=tmp_path / "cells", jobs=1)

    async def scenario():
        queue = JobQueue(factory, workers=1)
        queue.start()
        job = queue.submit(
            {"experiments": [broken.to_dict()], "fast": True, "retries": 0}
        )
        await wait_terminal(job)
        await queue.close()
        return job

    job = drain(scenario())
    assert job.status == "failed" and job.attempts == 1
    final = job.events[-1]
    assert final["status"] == "failed"
    assert "no_such_attack" in final["error"]
    # CellExecutionError identity made it to the wire: which cell, what kind
    assert final["failed_cell"]["kind"] == "whitebox"
    assert final["failed_cell"]["digest"]
    assert job.snapshot()["failed_cell"] == final["failed_cell"]


def test_job_retries_rejects_bad_values(tmp_path):
    def factory(fast=False, jobs=None):
        return Runner(fast=fast, cache_dir=tmp_path / "cells", jobs=1)

    async def scenario():
        from repro.service.jobs import SubmitError

        queue = JobQueue(factory, workers=1)
        for bad in (-1, True, "2"):
            with pytest.raises(SubmitError, match="retries"):
                queue.submit(
                    {"experiments": ["table07_energy_delay"], "retries": bad}
                )

    drain(scenario())


def test_close_cancels_running_and_queued_jobs(tmp_path):
    """Shutdown reports ``cancelled`` -- never ``failed`` -- and drains."""
    release = threading.Event()

    class BlockingRunner(Runner):
        def run_many(self, specs, on_result=None):
            release.wait(timeout=60)
            return []

    def factory(fast=False, jobs=None):
        return BlockingRunner(fast=fast, cache_dir=tmp_path / "cells", jobs=1)

    async def scenario():
        queue = JobQueue(factory, workers=1)
        queue.start()
        running = queue.submit({"experiments": ["table07_energy_delay"], "fast": True})
        queued = queue.submit({"experiments": ["fig04_approx_convolution"], "fast": True})
        while running.status != "running":  # the single worker picked it up
            await asyncio.sleep(0.01)
        assert queued.status == "pending"
        await queue.close()
        release.set()  # let the executor thread exit before the loop closes
        return running, queued

    running, queued = drain(scenario())
    assert running.status == "cancelled"
    assert queued.status == "cancelled"
    # never-started jobs have no elapsed time, and snapshotting them works
    snapshot = queued.snapshot()
    assert "elapsed_seconds" not in snapshot and "started_unix" not in snapshot
    # both final events reached their streams, so no follower blocks forever
    assert running.events[-1]["status"] == "cancelled"
    assert queued.events[-1]["status"] == "cancelled"
