"""Tests for the sharded multi-process execution engine (``repro.parallel``)."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.attacks.base import Classifier
from repro.core.evaluation import (
    select_correctly_classified,
    transfer,
    transfer_rates,
    white_box,
    white_box_budget,
)
from repro.experiments.zoo import ZOO
from repro.parallel.locks import FileLock, LockUnavailable, atomic_write_json, atomic_write_text
from repro.parallel.plan import build_plan
from repro.parallel.sharding import (
    attack_shard_size,
    cell_seed,
    cell_seed_sequence,
    n_shards,
    resolve_jobs,
    shard_bounds,
)
from repro.pipeline import (
    NONDETERMINISTIC_RESULT_FIELDS,
    ExperimentSpec,
    Runner,
    get_cell_kind,
)
import repro.pipeline.runner as runner_module
from repro.nn.layers import PER_CALL_STATE
from repro.pipeline.cells import _seeded_attack
from repro.pipeline.runner import clear_model_caches
from repro.store import ArtifactStore

#: cheap catalog experiments: no zoo model, no attack -- safe on a cold cache
CHEAP_EXPERIMENTS = ["fig04_approx_convolution", "table07_energy_delay"]

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def make_runner(tmp_path, tag="cells", **kwargs):
    kwargs.setdefault("cache_dir", tmp_path / tag)
    return Runner(fast=True, **kwargs)


def deterministic_json(result):
    payload = result.to_json()
    for field in NONDETERMINISTIC_RESULT_FIELDS:
        payload.pop(field)
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------- sharding
def test_shard_math():
    assert n_shards(0, 4) == 1  # empty budgets still produce one (empty) shard
    assert n_shards(6, 4) == 2
    assert n_shards(8, 4) == 2
    assert n_shards(9, 4) == 3
    assert shard_bounds(6, 4, 0) == (0, 4)
    assert shard_bounds(6, 4, 1) == (4, 6)
    assert shard_bounds(6, 4, 2) == (6, 6)  # beyond availability: empty
    # shards tile the sample range exactly, in order
    covered = [shard_bounds(10, 3, i) for i in range(n_shards(10, 3))]
    assert covered == [(0, 3), (3, 6), (6, 9), (9, 10)]


def test_shard_size_policy_env(monkeypatch):
    monkeypatch.delenv("REPRO_ATTACK_SHARD_SIZE", raising=False)
    default = attack_shard_size()
    assert default >= 1
    monkeypatch.setenv("REPRO_ATTACK_SHARD_SIZE", "16")
    assert attack_shard_size() == 16
    assert Runner(fast=True).shard_size == 16
    monkeypatch.setenv("REPRO_ATTACK_SHARD_SIZE", "bogus")
    assert attack_shard_size() == default
    # an explicit Runner argument beats the policy
    assert Runner(fast=True, shard_size=3).shard_size == 3


def test_cell_seeds_are_content_derived_and_spawn_compatible():
    payload = {"attack": "pgd", "n_samples": 8}
    # the cell-level seed is shard-free: one entropy per cell, from which
    # attacks spawn per-example streams keyed by global victim index
    assert cell_seed(payload) == cell_seed(dict(payload))  # pure function
    assert cell_seed(payload) != cell_seed({**payload, "n_samples": 12})
    # per-example spawn_key construction matches SeedSequence.spawn children
    root = cell_seed_sequence(payload)
    spawned = np.random.SeedSequence(entropy=root.entropy).spawn(3)
    for i in range(3):
        child = np.random.SeedSequence(entropy=root.entropy, spawn_key=(i,))
        assert spawned[i].generate_state(4).tolist() == child.generate_state(4).tolist()


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs("3") == 3
    assert resolve_jobs(0) >= 1
    assert resolve_jobs("auto") >= 1
    assert resolve_jobs(None) >= 1


# ------------------------------------------------------------------- locks
def test_file_lock_mutual_exclusion(tmp_path):
    lock_path = tmp_path / "cell.lock"
    first = FileLock(lock_path).acquire()
    try:
        with pytest.raises(LockUnavailable):
            FileLock(lock_path).acquire(blocking=False)
    finally:
        first.release()
    # released: a second holder can now take it
    second = FileLock(lock_path).acquire(blocking=False)
    assert second.held
    second.release()
    assert not second.held


def test_atomic_writes_publish_complete_files(tmp_path):
    target = tmp_path / "deep" / "artifact.json"
    atomic_write_json(target, {"value": 1}, sort_keys=True)
    assert json.loads(target.read_text()) == {"value": 1}
    atomic_write_text(target, "replaced")
    assert target.read_text() == "replaced"
    # no temporary droppings left behind
    assert [p.name for p in target.parent.iterdir()] == ["artifact.json"]


def test_threads_writing_one_path_at_once_all_succeed(tmp_path):
    # service threads publish the same results/<name>.json concurrently; a
    # temp name shared between them made one thread's replace steal the
    # other's file (FileNotFoundError) or publish a torn one
    target = tmp_path / "results" / "shared.json"
    texts = [json.dumps({"writer": i, "pad": str(i) * 50_000}) for i in range(8)]
    barrier = threading.Barrier(len(texts))
    errors = []

    def write(text):
        barrier.wait()
        try:
            for _ in range(25):
                atomic_write_text(target, text)
        except Exception as exc:  # pragma: no cover - the failure being tested
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(text,)) for text in texts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert target.read_text() in texts
    assert [p.name for p in target.parent.iterdir()] == ["shared.json"]


# ------------------------------------------------- determinism across jobs
def test_cheap_experiments_identical_across_jobs(tmp_path):
    serial = make_runner(tmp_path, "serial", jobs=1).run_many(CHEAP_EXPERIMENTS)
    parallel = make_runner(tmp_path, "parallel", jobs=3).run_many(CHEAP_EXPERIMENTS)
    for a, b in zip(serial, parallel):
        assert deterministic_json(a) == deterministic_json(b)


def test_prewarmed_cache_yields_zero_misses_under_jobs(tmp_path):
    make_runner(tmp_path, jobs=1).run_many(CHEAP_EXPERIMENTS)  # warm the cell cache
    runner = make_runner(tmp_path, jobs=3)
    results = runner.run_many(CHEAP_EXPERIMENTS)
    assert runner.cache_misses == 0
    assert runner.cache_hits == len(runner.telemetry.events)
    assert all(result.cache_misses == 0 for result in results)


# ------------------------------------------- sharded attack-evaluation cells
@pytest.fixture()
def tiny_zoo_entry(tiny_model, digit_split):
    """A zoo entry serving the session's tiny trained model (no disk cache)."""
    name = "parallel_test_zoo"
    ZOO.register(name, lambda fast=False: (tiny_model, digit_split), overwrite=True)
    yield name
    ZOO.unregister(name)


def tiny_whitebox_spec(zoo_name):
    return ExperimentSpec(
        name="tiny_whitebox",
        kind="whitebox",
        model=zoo_name,
        variants=("exact",),
        attacks=(("PGD", "pgd", {"epsilon": 0.1, "steps": 5}),),
        n_samples=6,
        params={"columns": ("success", "l2")},
    )


def test_sharded_cell_merge_is_order_independent(tmp_path, tiny_zoo_entry):
    runner = make_runner(tmp_path, jobs=1, shard_size=2)
    payload = {
        "model": tiny_zoo_entry,
        "attack": "pgd",
        "params": {"epsilon": 0.1, "steps": 5},
        "n_samples": 6,
        "victim": "exact",
    }
    kind = get_cell_kind("whitebox")
    assert kind.n_shards(runner, payload) == 3
    forward = [kind.compute_shard(runner, payload, i) for i in range(3)]
    backward = [kind.compute_shard(runner, payload, i) for i in (2, 1, 0)][::-1]
    assert forward == backward  # shard results don't depend on execution order
    merged = kind.merge(payload, forward)
    assert merged["n_samples"] == 6
    # per-example RNG streams: shards see different victims AND different
    # noise, so their traces differ
    assert forward[0] != forward[1]


@pytest.fixture()
def attack_payloads(tiny_zoo_entry, tiny_model):
    """One payload per attack cell kind over the tiny zoo entry.

    The black-box substitute is a zoo entry serving the tiny exact model, a
    stand-in for one distilled from the victim's query labels.
    """
    substitute = "parallel_test_substitute"
    ZOO.register(substitute, lambda fast=False, victim="da": tiny_model, overwrite=True)
    # a weak PGD: about half the victims fool the crafting model, so the
    # rates the folds compute are not all 0 or 1
    attack = {
        "model": tiny_zoo_entry,
        "attack": "pgd",
        "params": {"epsilon": 0.03, "steps": 5},
        "n_samples": 6,
    }
    yield {
        "transferability": {**attack, "source": "exact", "targets": ["exact", "da"]},
        "blackbox": {**attack, "victim": "da", "substitute": substitute},
        "whitebox": {**attack, "victim": "exact"},
    }
    ZOO.unregister(substitute)


def merged_cell(runner, kind_name, payload):
    kind = get_cell_kind(kind_name)
    shards = [kind.compute_shard(runner, payload, i) for i in range(kind.n_shards(runner, payload))]
    return kind.merge(payload, shards)


def test_cell_values_invariant_to_shard_size(tmp_path, attack_payloads):
    """The shard size is execution tuning: every layout merges identically."""
    for kind_name, payload in attack_payloads.items():
        values = []
        for shard_size in (1, 2, 3, 6):
            runner = make_runner(tmp_path, f"shards{shard_size}", jobs=1, shard_size=shard_size)
            assert get_cell_kind(kind_name).n_shards(runner, payload) == -(-6 // shard_size)
            values.append(json.dumps(merged_cell(runner, kind_name, payload), sort_keys=True))
        assert len(set(values)) == 1, kind_name


@pytest.mark.parametrize("kind_name", ["transferability", "blackbox", "whitebox"])
def test_protocol_over_one_slice_equals_the_sharded_cell(tmp_path, attack_payloads, kind_name):
    """A script's one call over the whole victim selection, folded, is the cell value."""
    payload = attack_payloads[kind_name]
    runner = make_runner(tmp_path, jobs=1, shard_size=2)
    spec = ExperimentSpec(name="protocol", kind="cell", model=payload["model"])
    split = runner.split(spec)
    if kind_name == "blackbox":
        crafter = Classifier(runner.zoo(payload["substitute"], victim=payload["victim"]))
    else:
        crafter = runner.classifier(spec, payload.get("source", payload.get("victim")))
    victims = select_correctly_classified(
        crafter, split.test.images, split.test.labels, payload["n_samples"]
    )
    x, y = split.test.images[victims], split.test.labels[victims]
    attack = _seeded_attack(payload, 0)
    if kind_name == "transferability":
        targets = {name: runner.classifier(spec, name) for name in payload["targets"]}
        want = transfer_rates([transfer(crafter, targets, attack, x, y)])
    elif kind_name == "blackbox":
        victim = runner.classifier(spec, payload["victim"])
        rates = transfer_rates([transfer(crafter, {"victim": victim}, attack, x, y)])
        want = {
            "n_crafted": rates["n_crafted"],
            "substitute_success_rate": rates["source_success_rate"],
            "victim_success_rate": rates["targets"]["victim"],
        }
    else:
        want = white_box_budget([white_box(crafter, attack, x, y)])
    assert get_cell_kind(kind_name).n_shards(runner, payload) == 3
    assert merged_cell(runner, kind_name, payload) == want


def test_whole_experiment_invariant_to_shard_size(tmp_path, tiny_zoo_entry):
    spec = tiny_whitebox_spec(tiny_zoo_entry)
    small = make_runner(tmp_path, "small", jobs=1, shard_size=2).run(spec)
    large = make_runner(tmp_path, "large", jobs=1, shard_size=6).run(spec)
    assert deterministic_json(small) == deterministic_json(large)


def test_a_shard_leaves_no_activations_in_the_memoised_models(tmp_path, tiny_zoo_entry):
    # a process keeps its models for its whole life, so each shard drops the
    # forward activations it left in their layers
    clear_model_caches()
    spec = tiny_whitebox_spec(tiny_zoo_entry).replace(variants=("exact", "da"))
    make_runner(tmp_path, jobs=1, shard_size=2).run(spec)
    memos = (*runner_module._ZOO_CACHE.values(), *runner_module._VARIANT_CACHE.values())
    models = [model for value in memos for model in runner_module._models(value)]
    assert len(models) >= 2
    kept = [
        (type(layer).__name__, name)
        for model in models
        for layer in model.layers
        for name in PER_CALL_STATE
        if getattr(layer, name, None) is not None
    ]
    assert kept == []


def test_concurrent_in_process_runs_take_turns_on_shared_models(tmp_path, tiny_zoo_entry):
    # service job threads share one process's memoised models, whose layers
    # keep per-call state between forward and backward: three jobs=1 runs
    # attacking the same models at once must each equal their lone run, and
    # count only their own kernel calls and attack queries
    specs = [
        tiny_whitebox_spec(tiny_zoo_entry).replace(
            variants=("exact", "da"),
            attacks=(("PGD", "pgd", {"epsilon": 0.05 * (i + 1), "steps": 40}),),
        )
        for i in range(3)
    ]
    # the first run in a process also pays the memoised warm-up and victim
    # selection, which every later run shares: pay them before counting
    make_runner(tmp_path, "warm", jobs=1, shard_size=2).run(specs[0])

    def counted(tag, spec):
        runner = make_runner(tmp_path, tag, jobs=1, shard_size=2)
        result = deterministic_json(runner.run(spec))
        return result, runner.telemetry.kernel_totals(), runner.telemetry.query_totals()

    want = {i: counted("alone", spec) for i, spec in enumerate(specs)}
    assert all(counts["fused_calls"] + counts["fallback_calls"] for _, counts, _ in want.values())
    got = {}

    def run(i):
        got[i] = counted(f"thread{i}", specs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


@pytest.mark.skipif(not HAS_FORK, reason="pool test needs fork to inherit the test zoo entry")
def test_a_pool_forked_while_another_thread_resolves_a_model_runs(
    tmp_path, monkeypatch, tiny_zoo_entry, tiny_model, digit_split
):
    # a service job resolving a slow zoo entry holds the model-resolution
    # lock while another job forks its pool: a worker that inherited the
    # lock held would wait for it forever (here: until its deadline)
    monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "5")
    clear_model_caches()  # the workers' memo lacks the run's entry
    entered, release = threading.Event(), threading.Event()

    def slow(fast=False):
        entered.set()
        release.wait(timeout=60)
        return tiny_model, digit_split

    ZOO.register("parallel_test_slow_zoo", slow, overwrite=True)
    holder = threading.Thread(
        target=make_runner(tmp_path, "slow").zoo, args=("parallel_test_slow_zoo",)
    )
    holder.start()
    try:
        assert entered.wait(timeout=30)
        runner = make_runner(tmp_path, jobs=2, shard_size=2)
        result = runner.run(tiny_whitebox_spec(tiny_zoo_entry))
    finally:
        release.set()
        holder.join(timeout=60)
        ZOO.unregister("parallel_test_slow_zoo")
    assert runner.telemetry.faults["shard_timeouts"] == 0
    assert result.cache_misses == 1


def _hold_lease(cache_dir, kind, digest, claimed, release):
    """A foreign writer: claims the cell's lease, then exits without publishing."""
    ArtifactStore(cache_dir).try_lease(kind, digest)
    claimed.set()
    release.wait(timeout=60)


@pytest.mark.skipif(not HAS_FORK, reason="the foreign writer is a forked child")
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cell_whose_foreign_writer_died_is_taken_over(
    tmp_path, monkeypatch, tiny_zoo_entry, jobs
):
    spec = tiny_whitebox_spec(tiny_zoo_entry)
    clean = make_runner(tmp_path, "clean", jobs=1, shard_size=2).run(spec)
    runner = make_runner(tmp_path, jobs=jobs, shard_size=2)
    (task,) = build_plan(runner, [spec]).tasks.values()
    fork = multiprocessing.get_context("fork")
    claimed, release = fork.Event(), fork.Event()
    writer = fork.Process(
        target=_hold_lease, args=(runner.cache_dir, task.kind, task.digest, claimed, release)
    )
    writer.start()
    # reaped as soon as it exits: a zombie's pid still probes alive, and its
    # lease would read live until the TTL
    threading.Thread(target=writer.join, daemon=True).start()
    waits = []
    wait_for = ArtifactStore.wait_for

    def writer_dies(store, kind, digest, *args, **kwargs):
        waits.append(digest)
        release.set()
        return wait_for(store, kind, digest, *args, **kwargs)

    monkeypatch.setattr(ArtifactStore, "wait_for", writer_dies)
    try:
        assert claimed.wait(timeout=30)
        result = runner.run(spec)
    finally:
        release.set()
    assert waits == [task.digest]  # deferred to the writer, then taken over
    assert runner.cache_misses == 1 and result.cache_misses == 1
    assert deterministic_json(result) == deterministic_json(clean)
    assert runner.store.lease_holder(task.kind, task.digest) is None


@pytest.mark.skipif(not HAS_FORK, reason="pool test needs fork to inherit the test zoo entry")
def test_attack_experiment_identical_across_jobs(tmp_path, tiny_zoo_entry):
    spec = tiny_whitebox_spec(tiny_zoo_entry)
    serial = make_runner(tmp_path, "serial", jobs=1, shard_size=2).run(spec)
    pooled = make_runner(tmp_path, "pooled", jobs=3, shard_size=2).run(spec)
    assert serial.cache_misses == 1 and pooled.cache_misses == 1
    assert deterministic_json(serial) == deterministic_json(pooled)
    # and the pooled artifact cache is interchangeable with the serial one
    rerun = make_runner(tmp_path, "pooled", jobs=1, shard_size=2).run(spec)
    assert rerun.cache_hits == 1 and rerun.cache_misses == 0
    assert deterministic_json(rerun) == deterministic_json(serial)


# ------------------------------------------------------ counters & telemetry
def test_counters_reset_between_runs(tmp_path):
    runner = make_runner(tmp_path, jobs=1)
    first = runner.run("table07_energy_delay")
    assert (runner.cache_hits, runner.cache_misses) == (0, 1)
    second = runner.run("table07_energy_delay")
    # per-run counters: the second run is all hits and misses reset to zero
    assert (runner.cache_hits, runner.cache_misses) == (1, 0)
    assert first.cache_misses == 1 and second.cache_hits == 1


def test_results_embed_cell_telemetry(tmp_path):
    result = make_runner(tmp_path, jobs=1).run("table07_energy_delay")
    telemetry = result.telemetry
    assert telemetry["jobs"] == 1
    assert len(telemetry["cells"]) == 1
    event = telemetry["cells"][0]
    assert event["kind"] == "energy"
    assert event["status"] == "computed"
    assert event["experiment"] == "table07_energy_delay"
    assert "telemetry" in result.to_json()


def test_shared_cells_are_computed_once_per_run(tmp_path, tiny_zoo_entry):
    # two sibling experiments over the same white-box grid (the fig08_09 /
    # fig10_11 shape): the shared cell is computed once, owned by the first
    spec = tiny_whitebox_spec(tiny_zoo_entry)
    sibling = spec.replace(
        name="tiny_whitebox_sibling", params={"columns": ("mse", "psnr")}
    )
    runner = make_runner(tmp_path, jobs=1, shard_size=2)
    first, second = runner.run_many([spec, sibling])
    assert runner.telemetry.cells_total == 1
    assert (first.cache_hits, first.cache_misses) == (0, 1)
    assert (second.cache_hits, second.cache_misses) == (1, 0)
    assert first.metrics == second.metrics


# ---------------------------------------------------------------- BLAS threads
_BLAS_PROBE = """
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.allocator import blas_threads
from repro.nn import native

before = blas_threads()
native.BACKEND.kernels()  # what the engine does before it forks its pool
with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
    print(before, blas_threads(), pool.submit(blas_threads).result())
"""


@pytest.mark.skipif(not HAS_FORK, reason="pool workers inherit the setting by fork")
def test_a_forked_pool_worker_of_an_unpinned_process_runs_one_blas_thread():
    # more BLAS threads round a training GEMM differently: the program, not
    # the environment, sets the count.  No BLAS variable reaches the child
    from repro.allocator import blas_threads

    if blas_threads() is None:
        pytest.skip("numpy loaded no OpenBLAS here")
    env = {
        "PATH": os.environ["PATH"],
        "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
        "REPRO_DA_CACHE": os.environ["REPRO_DA_CACHE"],
    }
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    before, parent, worker = (int(n) for n in proc.stdout.split())
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cores > 1:
        assert before > 1  # the child really started unpinned
    assert (parent, worker) == (1, 1)
