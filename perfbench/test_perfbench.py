"""Tests of the benchmark's own logic (no workload is run here).

Collected by the repository's plain ``python -m pytest``; pytest puts this
directory on ``sys.path``, so the benchmark modules import by name.
"""

from __future__ import annotations

import inspect
import json
import re
import statistics
import sys
from itertools import islice

import numpy as np
import pytest

import golden
import ledger
import spec
import stats
import tracing
import workloads
from ledger import Span
from tracing import ID_SCALE


# ----------------------------------------------------------------- percentiles
def test_percentile_matches_numpy_linear_interpolation():
    values = list(np.random.default_rng(0).normal(size=37))
    for p in (0.0, 25.0, 50.0, 90.0, 99.9, 100.0):
        assert stats.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    p, value = stats.tail(values)
    assert p == 90.0  # p95 leaves only 5 samples beyond it, p90 leaves 10
    assert sum(1 for v in values if v > value) >= 10
    assert stats.tail([float(v) for v in range(1, 1001)])[0] == 99.0


def test_tail_falls_back_to_the_maximum_with_few_samples():
    assert stats.tail([5.0, 1.0, 3.0] * 5) == (100.0, 5.0)


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


# ------------------------------------------------------------------ comparison
def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    same = stats.compare(base, list(base), "lower", 0.1)
    assert same["verdict"] == "unchanged" and same["won"] == 0
    faster = stats.compare(base, [v * 0.8 for v in base], "lower", 0.1)
    assert faster["verdict"] == "better" and faster["won"] == 10
    assert stats.compare(base, [v * 1.2 for v in base], "lower", 0.1)["verdict"] == "worse"
    assert stats.compare(base, [v * 0.8 for v in base], "higher", 0.1)["verdict"] == "worse"
    noisy = [float(v) for v in range(1, 11)]
    assert stats.compare(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"


def test_compare_sets_rows_per_workload_and_metric():
    def record(workload, wall):
        metrics = {m["name"]: 1.0 for m in spec.END_TO_END}
        metrics["wall_s"] = wall
        return {"workload": workload, "metrics": metrics}

    base = [record("a", 10.0), record("a", 10.2), record("b", 1.0)]
    new = [record("a", 10.1), record("a", 10.1), record("b", 1.0)]
    rows = stats.compare_sets(base, new, spec.END_TO_END)
    assert len(rows) == 2 * len(spec.END_TO_END)
    assert {r["verdict"] for r in rows} == {"unchanged"}
    assert "verdict" in stats.format_rows(rows)


# ------------------------------------------------------------------- self time
def _span(pid, n, parent, name, start, end, attrs=None):
    return Span(pid * ID_SCALE + n, parent, name, start, end, attrs)


def test_self_time_subtracts_same_pid_children_only():
    root = _span(1, 1, None, "parallel.execute", 0.0, 10.0)
    child = _span(1, 2, root.id, "parallel.warm", 2.0, 5.0)
    grandchild = _span(1, 3, child.id, "zoo.entry", 3.0, 4.0)
    worker = _span(2, 1, root.id, "parallel.shard", 1.0, 9.0)  # forked under root
    worker_child = _span(2, 2, worker.id, "nn.conv.fwd", 2.0, 8.0)
    own = ledger.self_times([root, child, grandchild, worker, worker_child])
    assert own[root.id] == pytest.approx(7.0)  # the worker ran on another core
    assert own[child.id] == pytest.approx(2.0)
    assert own[grandchild.id] == pytest.approx(1.0)
    assert own[worker.id] == pytest.approx(2.0)
    assert own[worker_child.id] == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    # spans of two job threads of one process can overlap under one parent
    parent = _span(1, 1, None, "p", 0.0, 10.0)
    a = _span(1, 2, parent.id, "a", 1.0, 4.0)
    b = _span(1, 3, parent.id, "b", 3.0, 6.0)
    assert ledger.self_times([parent, a, b])[parent.id] == pytest.approx(5.0)
    assert ledger.union_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)


def test_layer_metrics_attribution():
    entry = _span(1, 1, None, "zoo.entry", 0.0, 10.0, {"entry": "substitute_digits"})
    nested = _span(1, 2, entry.id, "zoo.entry", 0.5, 3.0, {"entry": "lenet_digits"})
    lenet_train = _span(1, 3, nested.id, "train.classifier", 1.0, 3.0)
    sub_train = _span(1, 4, entry.id, "train.substitute", 4.0, 9.0)
    inner = _span(1, 5, sub_train.id, "train.classifier", 5.0, 8.0)
    step = _span(1, 6, inner.id, "nn.optim.step", 5.0, 5.5)
    fused = _span(
        1, 7, None, "kernels.fused", 11.0, 12.0,
        {"fused_calls": 1, "fused_macs": 100, "fallback_macs": 50},
    )
    fallback = _span(1, 8, fused.id, "kernels.fallback", 11.2, 11.7, {"fallback_macs": 50})
    hit = _span(1, 9, None, "store.get", 12.0, 12.5, {"hit": True})
    miss = _span(1, 10, None, "store.get", 12.5, 13.0, {"hit": False})
    early = _span(1, 11, None, "zoo.entry", -5.0, -1.0, {"entry": "dq_objects"})
    spans = [entry, nested, lenet_train, sub_train, inner, step, fused, fallback, hit, miss, early]
    out = ledger.layer_metrics(spans, main_pid=1, window=(0.0, 20.0), jobs=2)
    assert out["zoo.train_s.lenet_digits"] == pytest.approx(2.0)
    assert out["zoo.train_s.substitute_digits"] == pytest.approx(5.0)  # outermost only
    assert out["zoo.train_s.dq_objects"] == 0.0  # started before the window
    assert out["zoo.train_s"] == pytest.approx(7.0)
    assert out["nn.train_steps"] == 1
    assert out["kernels.fallback_macs"] == 50  # the nested call is not counted twice
    assert out["kernels.fused_s"] == pytest.approx(0.5)
    assert out["store.hit_ratio"] == pytest.approx(0.5)
    assert out["trace.unattributed_s"] == pytest.approx(20.0 - 10.0 - 1.0 - 1.0)
    ledger.check_complete({**out, **{name: 0.0 for name in ledger.EXTERNAL}})


def test_spool_round_trip(tmp_path):
    tracer = tracing.Tracer(str(tmp_path))
    traced = tracer.wrap(lambda x: x + 1, "f", after=lambda args, result, state: {"r": result})
    with tracer.span("outer"):
        assert traced(1) == 2
    tracer.flush(meta={"main": True})
    spans, meta = ledger.load_spool(tmp_path)
    f, outer = spans
    assert (f.name, outer.name) == ("f", "outer")
    assert f.parent == outer.id and f.attrs == {"r": 2}
    assert meta == {tracer.pid: {"main": True}}


# -------------------------------------------------------------------- wrappers
def _snapshot():
    """Every attribute of every repro module and class, plus registry factories."""
    from repro.experiments.zoo import ZOO
    from repro.pipeline.runner import EXPERIMENT_KINDS

    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            seen[(name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("repro"):
                for cls_attr, cls_value in list(vars(value).items()):
                    seen[(value, cls_attr)] = cls_value
    for registry in (ZOO, EXPERIMENT_KINDS):
        for entry in registry.names():
            seen[(registry.namespace, entry)] = registry.get(entry).factory
    return seen


def test_install_wraps_and_restore_puts_every_original_back():
    import repro.attacks  # noqa: F401  (install imports these; load them first)
    import repro.cli  # noqa: F401
    import repro.core.substitute  # noqa: F401
    import repro.pipeline.catalog  # noqa: F401
    from repro.nn import ApproxConv2d, Conv2d, functional

    before = _snapshot()
    tracer = tracing.Tracer()
    patcher = tracing.install(tracer)
    try:
        assert Conv2d.forward is not before[(Conv2d, "forward")]
        cols = functional.im2col(np.zeros((1, 1, 4, 4), dtype=np.float32), (2, 2))
        assert cols.shape == (1, 4, 9)
        assert "nn.im2col" in {span[2] for span in tracer.spans}
        # an inherited method is labelled by the instance's class
        assert tracing._nn_label("bwd")((object.__new__(ApproxConv2d),)) == "nn.approx_conv.bwd"
    finally:
        patcher.restore()
    after = _snapshot()
    assert [key for key, value in before.items() if after.get(key) is not value] == []


# ------------------------------------------------------------------ workloads
def test_seed_gives_identical_request_sequences():
    names = workloads.SERVICE_EXPERIMENTS

    def take(seed):
        return [list(islice(seq, 40)) for seq in workloads.client_sequences(seed, names, 2)]

    first = take(7)
    assert first == take(7)
    assert first != take(8)
    assert not set(first[0]) & set(first[1])  # no experiment is in flight twice
    assert set(first[0]) | set(first[1]) == set(names)
    assert next(workloads.shuffled_passes(3, workloads.CATALOG)) == next(
        workloads.shuffled_passes(3, workloads.CATALOG)
    )


def test_measure_reps_runs_min_reps_then_until_seconds():
    def run_rep(tag, spool):
        return tag

    assert workloads._measure_reps(None, 0.0, run_rep, 3) == ["rep0", "rep1", "rep2"]
    assert workloads._measure_reps(None, 0.0, run_rep, 1) == ["rep0"]


def test_catalog_matches_the_program():
    from repro.pipeline import list_experiments

    assert list(workloads.CATALOG) == list_experiments()


# --------------------------------------------------------------------- golden
def test_fingerprint_ignores_nondeterministic_fields_and_equates_nan():
    a = '{"name": "x", "metrics": {"v": NaN}, "telemetry": {"t": 1}, "elapsed_seconds": 1.0}'
    b = '{"elapsed_seconds": 2.0, "metrics": {"v": NaN}, "name": "x", "cache": {"hits": 3}}'
    c = '{"name": "x", "metrics": {"v": 0.5}}'
    assert golden.fingerprint(a) == golden.fingerprint(b)
    assert golden.fingerprint(a) != golden.fingerprint(c)
    fingerprints = {"x": golden.fingerprint(a), "y": "0"}
    assert golden.mismatches(fingerprints, {"x": golden.fingerprint(b)}) == ["y"]


def test_nondeterministic_fields_match_the_program():
    from repro.pipeline import NONDETERMINISTIC_RESULT_FIELDS

    assert tuple(NONDETERMINISTIC_RESULT_FIELDS) == golden.NONDETERMINISTIC_FIELDS


def test_golden_covers_the_catalog():
    assert sorted(golden.load_golden()) == sorted(workloads.CATALOG)


# ------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_is_generated_from_spec_and_within_limits():
    document = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert document == json.loads(json.dumps(spec.benchmark_json()))
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = document["end_to_end"] + document["per_layer"]
    names = [w["name"] for w in document["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    assert all(unit_re.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(document["workloads"]) <= 8 and len(document["per_layer"]) <= 128
    assert set(workloads.WORKLOAD_RUNNERS) == {w["name"] for w in document["workloads"]}
