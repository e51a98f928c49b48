"""Tests for the zoo training units on the engine's one schedule.

A run trains the zoo training units (one per cached ``.npz``) its cells need
and finds missing on the same queue as the cells: on the ``--jobs N`` pool,
or in-process at ``--jobs 1``.  The contract: pool-trained parameters are
bit-identical to the ones a ``--jobs 1`` run trains in-process, a unit the
pool fails to publish is trained by the parent instead (and counted), a
warm zoo trains nothing, units and shards share one pool, no cell lease is
held while a unit the cell needs trains, a result that needs no unit is
written while the units train, and the cost-aware dispatch starts the unit
that would finish last before cells that can wait, without moving a bit.

The zoo entries here are registered inside the tests and train in
milliseconds; ``fork`` carries the registrations into the pool workers.
"""

import contextlib
import copy
import itertools
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.zoo as zoo
import repro.parallel.engine as engine
from repro.datasets import generate_digits, train_test_split
from repro.experiments.zoo import ZOO, TrainingUnit, zoo_cache_path, zoo_units
from repro.faults import FAULTS
from repro.nn import Adam, build_lenet5, train_classifier
from repro.nn.layers import PER_CALL_STATE
from repro.obs import TRACER
from repro.parallel.plan import CellTask, build_plan
from repro.pipeline import NONDETERMINISTIC_RESULT_FIELDS, ExperimentSpec, Runner
from repro.pipeline.runner import clear_model_caches
from repro.store import ArtifactStore

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pool needs fork to inherit the test zoo entries",
)

#: a base entry and one whose recipe depends on it (the LeNet/substitute
#: shape), and a third that depends on nothing
BASE, DEPENDENT, OTHER = "zoo_training_base", "zoo_training_dependent", "zoo_training_other"

_RUNS = itertools.count()


def _register(name, seed, split, depends_on=(), before_training=None, cost=None):
    """A tiny trainable entry; ``before_training(name)`` runs where its unit trains."""

    def build():
        return build_lenet5(
            split.train.input_shape, conv_channels=(2, 4), fc_sizes=(8, 8), dropout=0.2, seed=seed
        )

    def train(model):
        if before_training is not None:
            before_training(name)
        optimizer = Adam(model.parameters(), lr=0.003)
        train_classifier(model, optimizer, split.train.images, split.train.labels, epochs=2)

    def unit(fast=False):
        return zoo._unit(name, name, lambda: ZOO.create(name, fast=fast)[0], fast, cost)

    def entry(fast=False):
        return zoo._cached_model(unit(fast), build, train), split

    def units(fast=False):
        return [unit(fast)]

    recipe = {"seed": seed, "depends_on": list(depends_on)}
    ZOO.register(name, entry, metadata={"recipe": recipe, "units": units}, overwrite=True)


@pytest.fixture()
def tiny_zoo(tmp_path, monkeypatch):
    """Two tiny trainable entries over a private, initially empty zoo cache."""
    split = train_test_split(generate_digits(120, size=12, seed=5), 0.25)
    _register(BASE, 1, split)
    _register(DEPENDENT, 2, split, depends_on=[BASE])
    monkeypatch.setattr(zoo, "CACHE_DIR", tmp_path / "zoo-default")  # never the user's cache
    clear_model_caches()
    FAULTS.configure(None)
    yield split
    FAULTS.configure(None)
    clear_model_caches()
    TRACER.configure()
    for name in (BASE, DEPENDENT, OTHER):
        ZOO.unregister(name)


def accuracy_spec(entries=(BASE, DEPENDENT), name="zoo_training_accuracy"):
    """One cheap cell per tiny entry, so a run needs each entry's unit."""
    columns = [
        {"key": entry, "label": entry, "model": entry, "variants": ["exact"], "n_samples": 8}
        for entry in entries
    ]
    return ExperimentSpec(
        name=name,
        kind="accuracy",
        params={"columns": columns, "rows": [{"label": "Float32", "variant": "exact"}]},
    )


def run_into(zoo_dir, monkeypatch, tmp_path, jobs, results_dir=None):
    """Run the spec against zoo cache ``zoo_dir`` and a fresh cell cache."""
    monkeypatch.setattr(zoo, "CACHE_DIR", zoo_dir)
    clear_model_caches()
    runner = Runner(
        fast=True,
        cache_dir=tmp_path / "cells" / str(next(_RUNS)),
        results_dir=results_dir,
        jobs=jobs,
    )
    result = runner.run(accuracy_spec())
    return runner, result


def npz_arrays(zoo_dir):
    """``{file name: {array name: bytes}}`` of every published unit."""
    out = {}
    for path in sorted(zoo_dir.glob("*.npz")):
        with np.load(path) as data:
            out[path.name] = {key: data[key].tobytes() for key in data.files}
    return out


def unit_names():
    return sorted(u.name for name in (BASE, DEPENDENT) for u in zoo_units(name, fast=True))


@needs_fork
def test_pool_trained_units_equal_serially_trained_ones(tmp_path, monkeypatch, tiny_zoo):
    serial_runner, serial = run_into(tmp_path / "zoo-serial", monkeypatch, tmp_path, jobs=1)
    pooled_runner, pooled = run_into(tmp_path / "zoo-pooled", monkeypatch, tmp_path, jobs=2)

    serial_arrays = npz_arrays(tmp_path / "zoo-serial")
    assert len(serial_arrays) == 2
    assert npz_arrays(tmp_path / "zoo-pooled") == serial_arrays
    assert pooled.metrics == serial.metrics
    # --jobs 1 trains in-process; --jobs 2 trained both units on the pool
    assert sorted(serial_runner.telemetry.zoo_training()["parent"]) == unit_names()
    zoo_run = pooled_runner.telemetry.zoo_training()
    assert sorted(zoo_run["pool"]) == unit_names() and zoo_run["parent"] == []
    assert zoo_run["wall_s"] > 0
    # each unit's training seconds, as the worker that trained it measured them
    assert sorted(zoo_run["unit_s"]) == unit_names()
    assert all(seconds > 0 for seconds in zoo_run["unit_s"].values())
    assert pooled.telemetry["zoo"] == {"scope": "run", **zoo_run}
    assert pooled_runner.telemetry.faults["zoo_fallbacks"] == 0


def _failing_unit(name):
    raise RuntimeError(f"{name} cannot train here")


def _crashing_unit(name):
    os._exit(117)  # what an injected worker.crash at zoo:<name> does


@needs_fork
@pytest.mark.parametrize("failure", ["crash", "raise"])
def test_units_the_pool_fails_to_publish_are_trained_by_the_parent(
    tmp_path, monkeypatch, tiny_zoo, failure
):
    run_into(tmp_path / "zoo-serial", monkeypatch, tmp_path, jobs=1)
    # the worker looks the function up in its forked copy of the module, so
    # every unit fails on the pool while the cells' shards run as usual
    if failure == "crash":
        monkeypatch.setattr(engine, "_train_unit", _crashing_unit)
        runner, _ = run_into(tmp_path / "zoo-fallback", monkeypatch, tmp_path, jobs=2)
    else:
        monkeypatch.setattr(engine, "_train_unit", _failing_unit)
        with pytest.warns(RuntimeWarning, match="cannot train here"):
            runner, _ = run_into(tmp_path / "zoo-fallback", monkeypatch, tmp_path, jobs=2)

    assert npz_arrays(tmp_path / "zoo-fallback") == npz_arrays(tmp_path / "zoo-serial")
    # the dependent unit never reached the pool: its dependency did not publish
    assert runner.telemetry.faults["zoo_fallbacks"] == 2
    assert runner.telemetry.faults["worker_crashes"] == (failure == "crash")
    zoo_run = runner.telemetry.zoo_training()
    assert zoo_run["pool"] == [] and sorted(zoo_run["parent"]) == unit_names()
    assert sorted(zoo_run["unit_s"]) == unit_names()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_unit_that_fails_in_the_parent_is_retried_then_names_its_cell(
    tmp_path, monkeypatch, tiny_zoo, jobs
):
    # the parent's training goes through the same bounded retry as a shard:
    # REPRO_SHARD_RETRIES attempts after the first, then an error naming
    # the first cell that needs the unit, the unit and the owner
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the pool needs fork to inherit the test zoo entries")
    monkeypatch.setenv("REPRO_SHARD_RETRIES", "1")
    attempts = tmp_path / "attempts.txt"

    def fail(name):
        with attempts.open("a") as out:
            out.write(f"{os.getpid()}\n")
        raise RuntimeError(f"{name} cannot train anywhere")

    _register(BASE, 1, tiny_zoo, before_training=fail)
    runner = Runner(fast=True, cache_dir=tmp_path / "cells", jobs=jobs)
    on_the_pool = pytest.warns(RuntimeWarning, match="failed on the pool")
    with on_the_pool if jobs > 1 else contextlib.nullcontext():
        with pytest.raises(engine.CellExecutionError) as excinfo:
            runner.run(accuracy_spec())
    error = excinfo.value
    assert f"zoo unit {BASE}" in str(error) and "failed after 2 attempt(s)" in str(error)
    assert "cannot train anywhere" in str(error)
    assert error.shard is None and error.owner == "zoo_training_accuracy"
    pids = attempts.read_text().split()
    # one attempt on the pool, then the parent's first attempt and its retry
    assert pids[-2:] == [str(os.getpid())] * 2 and len(pids) == 1 + jobs
    assert runner.telemetry.faults["shard_retries"] == 1


class RecordingPool(engine.ProcessPoolExecutor):
    """The engine's pool class, recording each pool, what it ran and its pids."""

    pools = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submitted, self.pids = [], set()
        RecordingPool.pools.append(self)

    def submit(self, fn, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.submitted.append(fn.__name__)
        self.pids.update(self._processes)
        return future


@pytest.fixture()
def recording_pool(monkeypatch):
    RecordingPool.pools = []
    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.pools


@needs_fork
def test_warm_zoo_spawns_no_training_pool(tmp_path, monkeypatch, tiny_zoo, recording_pool):
    zoo_dir = tmp_path / "zoo"
    run_into(zoo_dir, monkeypatch, tmp_path, jobs=2)  # trains the zoo
    del recording_pool[:]
    runner, result = run_into(zoo_dir, monkeypatch, tmp_path, jobs=2)
    assert result.cache_misses == 2  # fresh cell cache: the pool did run
    (pool,) = recording_pool
    assert pool.submitted == ["_run_shard", "_run_shard"]  # and trained nothing
    assert runner.telemetry.zoo_training() == {
        "pool": [], "parent": [], "unit_s": {}, "cost": {}, "estimate_s": {}, "worker": {},
        "wall_s": 0.0,
    }


def trace_spans(results, name="zoo_training_accuracy"):
    text = (results / f"{name}.trace.ndjson").read_text()
    return [json.loads(line) for line in text.splitlines()]


@needs_fork
def test_traced_pool_training_spans_come_from_the_workers(tmp_path, monkeypatch, tiny_zoo):
    TRACER.configure(enabled=True, directory=tmp_path / "spool")
    results = tmp_path / "results"
    run_into(tmp_path / "zoo", monkeypatch, tmp_path, jobs=2, results_dir=results)
    spans = trace_spans(results)
    parent = next(s["pid"] for s in spans if s["name"] == "run")
    train = [s for s in spans if s["name"] == "zoo.train"]
    assert sorted(s["args"]["unit"] for s in train) == unit_names()
    # trained in pool workers, never in the parent
    assert parent not in {s["pid"] for s in train}
    # the workers load what their shards need; the parent loads nothing
    loads = [s for s in spans if s["name"] == "zoo.load"]
    assert loads and parent not in {s["pid"] for s in loads}


@needs_fork
def test_units_and_shards_run_on_one_pool(tmp_path, monkeypatch, tiny_zoo, recording_pool):
    TRACER.configure(enabled=True, directory=tmp_path / "spool")
    results = tmp_path / "results"
    runner, _ = run_into(tmp_path / "zoo", monkeypatch, tmp_path, jobs=2, results_dir=results)
    (pool,) = recording_pool  # one pool for the whole run
    assert sorted(pool.submitted) == ["_run_shard"] * 2 + ["_train_unit"] * 2
    spans = trace_spans(results)
    ran = {s["name"]: set() for s in spans}
    for span in spans:
        ran[span["name"]].add(span["pid"])
    assert ran["zoo.train"] and ran["shard"]
    assert ran["zoo.train"] | ran["shard"] <= pool.pids
    assert set(runner.telemetry.zoo_training()["worker"].values()) <= pool.pids


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_lease_is_held_while_a_unit_the_cell_needs_is_unpublished(tmp_path, tiny_zoo, jobs):
    # a unit may train for minutes: a cell lease held through it could
    # outlive its TTL and let a second process sharing the store compute
    # the cell again.  Each unit, where it trains, reads the leases of the
    # cells that need it.
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the pool needs fork to inherit the test zoo entries")
    cells = tmp_path / "cells"
    runner = Runner(fast=True, cache_dir=cells, jobs=jobs)
    plan = build_plan(runner, [accuracy_spec()])
    needers = {
        BASE: list(plan.tasks),  # the dependent's cell needs the base unit too
        DEPENDENT: [d for d, t in plan.tasks.items() if t.payload["model"] == DEPENDENT],
    }
    seen = tmp_path / "leases.txt"

    def probe(name):
        store = ArtifactStore(cells)
        with seen.open("a") as out:
            for digest in needers[name]:
                out.write(f"{name} {store.lease_holder('accuracy', digest)}\n")

    _register(BASE, 1, tiny_zoo, before_training=probe)
    _register(DEPENDENT, 2, tiny_zoo, depends_on=[BASE], before_training=probe)
    runner.run(accuracy_spec())
    assert sorted(seen.read_text().splitlines()) == [
        f"{BASE} None", f"{BASE} None", f"{DEPENDENT} None"
    ]


def _wait_for(path, seconds=15.0):
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return path.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_result_that_needs_no_unit_is_written_while_a_unit_trains(tmp_path, tiny_zoo, jobs):
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the pool needs fork to inherit the test zoo entries")
    results = tmp_path / "results"
    written = results / "table07_energy_delay.json"
    marker = tmp_path / "marker.txt"

    def block(name):
        # training waits for the zoo-free result; a schedule that trains the
        # unit first times out here instead
        marker.write_text("written" if _wait_for(written) else "timed out")

    _register(BASE, 1, tiny_zoo, before_training=block)
    spec = accuracy_spec().replace(
        params={
            "columns": [
                {"key": BASE, "label": BASE, "model": BASE, "variants": ["exact"], "n_samples": 8}
            ],
            "rows": [{"label": "Float32", "variant": "exact"}],
        }
    )
    landed = []
    runner = Runner(fast=True, cache_dir=tmp_path / "cells", results_dir=results, jobs=jobs)
    runner.run_many([spec, "table07_energy_delay"], on_result=lambda r: landed.append(r.name))
    assert marker.read_text() == "written"
    assert landed == ["table07_energy_delay", spec.name]  # completion order
    assert runner.telemetry.zoo_training()["pool" if jobs > 1 else "parent"] == [BASE]


def test_a_truncated_unit_file_is_retrained_with_the_same_bytes(tmp_path, tiny_zoo):
    zoo_dir = tmp_path / "zoo-default"
    ZOO.create(BASE, fast=True)
    before = npz_arrays(zoo_dir)
    (path,) = zoo_dir.glob("*.npz")
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    trained = len(zoo.TRAINED_UNITS)
    ZOO.create(BASE, fast=True)
    assert [name for name, _ in zoo.TRAINED_UNITS[trained:]] == [BASE]
    assert npz_arrays(zoo_dir) == before


def test_dependent_units_wait_for_their_recipe_dependencies():
    (substitute,) = zoo_units("substitute_digits", fast=True, victim="exact")
    (lenet,) = zoo_units("lenet_digits", fast=True)
    assert substitute.after == (lenet,)
    assert substitute.path == zoo_cache_path("substitute_exact_digits_fast", "substitute_digits")
    dq = zoo_units("dq_objects", fast=False)
    assert [u.name for u in dq] == ["dq_full_objects_4b", "dq_weight_objects_4b"]
    assert all(u.after == () for u in dq)


def test_dataset_splits_are_memoised_read_only_and_cleared(tmp_path, monkeypatch):
    # first: a split generated here must never be published in the user's cache
    monkeypatch.setattr(zoo, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(zoo, "DIGITS_CONFIG_FAST", {**zoo.DIGITS_CONFIG_FAST, "n_samples": 40})
    calls = []
    real = zoo.generate_digits

    def counting(**config):
        calls.append(config)
        return real(**config)

    monkeypatch.setattr(zoo, "generate_digits", counting)
    clear_model_caches()
    try:
        split = zoo.load_digits_split(fast=True)
        assert zoo.load_digits_split(fast=True) is split
        assert len(calls) == 1  # the second call generated nothing
        for array in (split.train.images, split.train.labels, split.test.images, split.test.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        zoo.load_digits_split(0.5, fast=True)  # another test fraction is another split
        assert len(calls) == 2
        clear_model_caches()
        assert zoo.load_digits_split(fast=True) is not split
        assert len(calls) == 2  # read back from the zoo cache, not generated
    finally:
        clear_model_caches()


def test_a_freshly_trained_unit_model_keeps_no_per_call_cache(tiny_zoo):
    # the trim after training would otherwise leave the last step's
    # activations and patch matrices in the heap
    trained = len(zoo.TRAINED_UNITS)
    model, _ = ZOO.create(BASE, fast=True)
    assert [name for name, _ in zoo.TRAINED_UNITS[trained:]] == [BASE]
    kept = [
        (type(layer).__name__, name)
        for layer in model.layers
        for name in PER_CALL_STATE
        if getattr(layer, name, None) is not None
    ]
    assert kept == []


def test_unit_costs_rank_the_fast_zoo_by_training_work():
    cost = {
        unit.name: unit.cost
        for name, kwargs in (
            ("lenet_digits", {}),
            ("alexnet_objects", {}),
            ("dq_objects", {}),
            ("substitute_digits", {"victim": "da"}),
            ("substitute_digits", {"victim": "exact"}),
        )
        for unit in zoo_units(name, fast=True, **kwargs)
    }
    # the order of their training seconds: DQ, AlexNet, LeNet, substitute
    assert cost["dq_full_objects_4b_fast"] == cost["dq_weight_objects_4b_fast"]
    assert cost["dq_full_objects_4b_fast"] > cost["alexnet_objects_fast"]
    assert cost["alexnet_objects_fast"] > cost["lenet_digits_fast"]
    assert cost["lenet_digits_fast"] > cost["substitute_da_digits_fast"]
    assert cost["substitute_da_digits_fast"] == cost["substitute_exact_digits_fast"]
    # the full profile adds the fine-tune epochs: 25 + 10 against 8 fast, on
    # 5,100 training digits against 1,700
    (full,) = zoo_units("lenet_digits", fast=False)
    assert full.cost * 8 * 1700 == cost["lenet_digits_fast"] * 35 * 5100


# ---------------------------------------------------- the dispatch decisions
LENET, ALEXNET, DQ_FULL, DQ_WEIGHT = "lenet", "alexnet", "dq_full", "dq_weight"
SUB_EXACT, SUB_DA = "sub_exact", "sub_da"
#: the fast zoo's unit costs in millions (the MAC count of ``TrainingUnit.cost``)
FAST_COSTS = {
    LENET: 1387, ALEXNET: 7671, DQ_FULL: 10923, DQ_WEIGHT: 10923, SUB_EXACT: 121, SUB_DA: 121
}
#: seconds per million: AlexNet ~2.3 s, a DQ unit ~3.3 s, the LeNet ~0.4 s
RATE = 3e-4
#: the units each of the catalog's model experiments needs
NEEDS = {
    "table02": {LENET},
    "table04": {LENET, SUB_EXACT, SUB_DA},
    "table03": {ALEXNET},
    "table05": {ALEXNET, DQ_FULL, DQ_WEIGHT},
}


def fast_queue(order, costs=FAST_COSTS):
    """A ready queue over the fast zoo's units, unpublished in request ``order``.

    Each experiment of :data:`NEEDS` that needs one of them has two
    one-shard cells; the others are done.
    """

    def unit(name):
        after = (lenet,) if name in (SUB_EXACT, SUB_DA) else ()  # they wait for the LeNet
        return TrainingUnit(name, Path(name), lambda: None, after, costs.get(name))

    lenet = unit(LENET)
    units = {name: lenet if name == LENET else unit(name) for name in order}
    tasks, needs = [], {}
    for owner, needed in NEEDS.items():
        for cell in range(2 if needed & set(units) else 0):
            task = CellTask("accuracy", {}, f"{owner}:{cell}", 1, owner, 1.0)
            tasks.append(task)
            needs[task.digest] = needed & set(units)
    groups = [[t.digest for t in tasks if t.owner == owner] for owner in NEEDS]
    return engine._ReadyQueue(tasks, units, needs, groups)


def label(item):
    """A popped unit's name, or the experiment a popped shard belongs to."""
    return item if isinstance(item, str) or item is None else item[0].owner


def drain(queue, rate=None, busy=()):
    """Pop until nothing is ready; returns the labels in dispatch order."""
    out = []
    while (item := queue.pop(rate, busy)) is not None:
        out.append(label(item))
    return out


def test_the_unit_that_would_finish_last_starts_before_cells_that_can_wait():
    # AlexNet has published while DQ-full trains on the other worker
    queue = fast_queue([ALEXNET, DQ_FULL, DQ_WEIGHT])
    assert [queue.pop(), queue.pop()] == [ALEXNET, DQ_FULL]
    queue.publish(ALEXNET)
    # DQ-full has ~1 s left: DQ-weight, started after table03's cells, would
    # end the run, so it starts now and the cells follow
    assert label(copy.deepcopy(queue).pop(RATE, [5.0])) == "table03"  # slack: cells first
    assert queue.pop(RATE, [1.0]) == DQ_WEIGHT
    assert drain(queue, RATE, [1.0]) == ["table03", "table03"]


def test_the_lenet_cells_go_before_either_dq_unit_while_alexnet_trains():
    queue = fast_queue([LENET, ALEXNET, DQ_FULL, DQ_WEIGHT, SUB_EXACT, SUB_DA])
    assert [queue.pop(), queue.pop()] == [LENET, ALEXNET]  # rule 1, then request order
    queue.publish(LENET)
    # AlexNet has ~2 s left: both DQ units fit beside it
    assert drain(queue, RATE, [2.0])[:4] == ["table02", "table02", SUB_EXACT, SUB_DA]


def test_the_substitutes_go_before_the_dq_units_in_every_request_order():
    for order in itertools.permutations(FAST_COSTS):
        queue = fast_queue(order)
        assert queue.pop() == LENET  # the substitutes wait for it
        other = queue.pop()  # the other worker's first unit, in request order
        queue.publish(LENET)
        after = drain(queue, RATE, [FAST_COSTS[other] * RATE - 0.4])
        units = [name for name in after if name in FAST_COSTS]
        assert sorted(units[:2]) == [SUB_DA, SUB_EXACT], (order, after)


def simulate(queue, rate=None, busy=()):
    """Pop until the queue is empty, each unit publishing as it is dispatched."""
    out = []
    while (item := queue.pop(rate, busy)) is not None:
        out.append(label(item))
        if isinstance(item, str):
            queue.publish(item)
    return out


@pytest.mark.parametrize("rate, busy", [(None, [1.0]), (RATE, [])])
def test_one_worker_or_no_trained_unit_keeps_request_order(rate, busy):
    # rule 4 takes the next unit in request order, and rule 2 never fires
    queue = fast_queue([ALEXNET, DQ_FULL, DQ_WEIGHT])
    assert simulate(queue, rate, busy) == [
        ALEXNET, "table03", "table03", DQ_FULL, DQ_WEIGHT, "table05", "table05"
    ]
    order = [DQ_WEIGHT, SUB_DA, LENET, ALEXNET, SUB_EXACT, DQ_FULL]
    assert simulate(fast_queue(order), rate, busy) == simulate(fast_queue(order))


def test_units_without_a_recipe_cost_keep_request_order():
    order = [DQ_FULL, SUB_DA, ALEXNET, DQ_WEIGHT]
    queue = fast_queue(order, costs={})
    assert queue.pop() == DQ_FULL
    queue.publish(DQ_FULL)
    assert drain(queue, RATE, [5.0]) == [SUB_DA, ALEXNET, DQ_WEIGHT]


@needs_fork
def test_a_cold_pool_run_writes_the_same_bytes_in_any_experiment_order(
    tmp_path, monkeypatch, tiny_zoo
):
    # costed units: once one has trained, the pool dispatches by cost
    _register(BASE, 1, tiny_zoo, cost=20)
    _register(DEPENDENT, 2, tiny_zoo, depends_on=[BASE], cost=1)
    _register(OTHER, 3, tiny_zoo, cost=40)
    specs = [
        accuracy_spec(),
        accuracy_spec((OTHER,), name="zoo_training_other_accuracy"),
        "table07_energy_delay",
    ]
    written = []
    for index, order in enumerate((specs, specs[::-1])):
        zoo_dir, results = tmp_path / f"zoo{index}", tmp_path / f"results{index}"
        monkeypatch.setattr(zoo, "CACHE_DIR", zoo_dir)
        clear_model_caches()
        cells = tmp_path / f"cells{index}"
        runner = Runner(fast=True, cache_dir=cells, results_dir=results, jobs=2)
        runner.run_many(order)
        assert sorted(runner.telemetry.zoo_training()["pool"]) == sorted([BASE, DEPENDENT, OTHER])
        outputs = {}
        for name in ("zoo_training_accuracy", "zoo_training_other_accuracy", specs[2]):
            result = json.loads((results / f"{name}.json").read_text())
            outputs[name] = {
                k: v for k, v in result.items() if k not in NONDETERMINISTIC_RESULT_FIELDS
            }
        written.append((outputs, npz_arrays(zoo_dir)))
    assert len(written[0][1]) == 3
    assert written[0] == written[1]
