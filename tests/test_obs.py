"""Tests for ``repro.obs``: tracing, cross-process folding, the trace CLI.

Covers the tracer's lifecycle (off by default, ``REPRO_TRACE`` parsing, spool
-> merge), the Prometheus renderer, and the PR's acceptance behaviour: a
``--jobs 2`` attack run whose result telemetry carries kernel/query counters
folded from the worker processes and whose merged trace contains spans from
every worker pid, including store-lease and kernel-strategy spans.
"""

import json
import multiprocessing

import pytest

from repro.cli import main as cli_main
from repro.experiments.zoo import ZOO
from repro.obs import TRACER, Histogram, MetricsRenderer
from repro.obs.timeline import chrome_trace, load_spans, summarize
from repro.obs.trace import _NULL_SPAN
from repro.pipeline import ExperimentSpec, Runner
from repro.pipeline.runner import clear_model_caches

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(autouse=True)
def reset_tracer():
    """Leave the process-global tracer lazily unconfigured after every test."""
    yield
    TRACER.configure()


# ------------------------------------------------------------------- tracer
def test_tracing_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    TRACER.configure()
    assert not TRACER.enabled
    # the disabled path hands out one shared no-op span -- no allocation
    span = TRACER.span("anything", cat="test", key="value")
    assert span is _NULL_SPAN
    with span as live:
        live["ignored"] = 1  # setitem on the null span must be a no-op
    assert TRACER.begin_run("x") is None
    assert TRACER.worker_spool_dir() is None
    assert TRACER.end_run(None) is None


@pytest.mark.parametrize("value", ["", "0", "false", "no", "off", " OFF "])
def test_falsey_env_values_disable(monkeypatch, value):
    monkeypatch.setenv("REPRO_TRACE", value)
    TRACER.configure()
    assert not TRACER.enabled


def test_env_path_selects_spool_directory(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "mytrace"))
    TRACER.configure()
    assert TRACER.enabled
    scope = TRACER.begin_run("env")
    assert scope is not None
    assert scope.directory.parent == tmp_path / "mytrace"
    TRACER.end_run(scope)


def test_span_spool_and_merge(tmp_path):
    TRACER.configure(enabled=True, directory=tmp_path)
    scope = TRACER.begin_run("unit")
    assert scope is not None
    # a second scope while one is active: spans merge into the owner's
    assert TRACER.begin_run("nested") is None
    with TRACER.span("outer", cat="test", fixed=1) as span:
        span["discovered"] = "late"
        with TRACER.span("inner", cat="test"):
            pass
    with pytest.raises(RuntimeError):
        with TRACER.span("failing", cat="test"):
            raise RuntimeError("boom")
    merged = tmp_path / "unit.trace.ndjson"
    trace = TRACER.end_run(scope, merged)
    assert trace == {"path": str(merged), "spans": 3, "pids": trace["pids"]}
    assert not scope.directory.exists()  # spool dir cleaned up
    spans = [json.loads(line) for line in merged.read_text().splitlines()]
    by_name = {s["name"]: s for s in spans}
    assert by_name["outer"]["args"] == {"fixed": 1, "discovered": "late"}
    assert by_name["failing"]["args"]["error"] == "RuntimeError"
    # inner closed before outer but started later: merge is ts-sorted
    assert [s["ts"] for s in spans] == sorted(s["ts"] for s in spans)
    assert all(s["dur"] >= 0 for s in spans)


def test_attach_spools_into_foreign_scope(tmp_path):
    TRACER.configure(enabled=True, directory=tmp_path / "base")
    TRACER.attach(str(tmp_path / "scope"))
    with TRACER.span("from-worker", cat="test"):
        pass
    spools = list((tmp_path / "scope").glob("*.ndjson"))
    assert len(spools) == 1
    assert json.loads(spools[0].read_text())["name"] == "from-worker"


# ------------------------------------------------------------------ metrics
def test_histogram_buckets_are_cumulative():
    hist = Histogram(buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 2.0):
        hist.observe(value)
    out = MetricsRenderer()
    out.histogram("t_seconds", "test", hist)
    text = out.render()
    assert 't_seconds_bucket{le="0.1"} 1' in text
    assert 't_seconds_bucket{le="1.0"} 3' in text
    assert 't_seconds_bucket{le="+Inf"} 4' in text
    assert "t_seconds_count 4" in text
    assert "t_seconds_sum 3.05" in text


def test_renderer_families_and_label_escaping():
    out = MetricsRenderer()
    out.counter("c_total", "a counter", 7)
    out.gauge(
        "g", "a gauge", samples=[({"path": 'a"b\\c'}, 1.5), ({"path": "plain"}, 2)]
    )
    text = out.render()
    assert "# HELP c_total a counter\n# TYPE c_total counter\nc_total 7" in text
    assert 'g{path="a\\"b\\\\c"} 1.5' in text
    assert 'g{path="plain"} 2' in text
    assert text.endswith("\n")


# ------------------------------------- cross-process folding (acceptance)
@pytest.fixture()
def obs_zoo_entry(tiny_model, digit_split):
    name = "obs_test_zoo"
    ZOO.register(name, lambda fast=False: (tiny_model, digit_split), overwrite=True)
    yield name
    ZOO.unregister(name)


def attack_spec(zoo_name):
    """A tiny white-box grid over the approximate victim (kernels must fire)."""
    return ExperimentSpec(
        name="obs_whitebox",
        kind="whitebox",
        model=zoo_name,
        variants=("exact", "da"),
        attacks=(("PGD", "pgd", {"epsilon": 0.1, "steps": 3}),),
        n_samples=4,
        params={"columns": ("success", "l2")},
    )


@pytest.mark.skipif(not HAS_FORK, reason="pool test needs fork to inherit the test zoo entry")
def test_jobs2_folds_worker_counters_and_merges_traces(tmp_path, obs_zoo_entry):
    TRACER.configure(enabled=True, directory=tmp_path / "spool")
    runner = Runner(
        fast=True,
        cache_dir=tmp_path / "cells",
        results_dir=tmp_path / "results",
        jobs=2,
        shard_size=2,
    )
    runner.run(attack_spec(obs_zoo_entry))

    telemetry = runner.telemetry
    # the compute happened in workers, yet the folded totals are nonzero
    kernels = telemetry.kernel_totals()
    assert kernels["fused_calls"] + kernels["fallback_calls"] > 0
    queries = telemetry.query_totals()
    assert queries["query_samples"] > 0 and queries["gradient_samples"] > 0
    assert telemetry.worker_pids, "shard stats must carry the worker pids"
    assert telemetry.attack_queries()["query_samples"] == queries["query_samples"]

    trace = telemetry.trace
    assert trace is not None and trace["spans"] > 0
    # spans from the parent AND every folded worker pid
    assert len(trace["pids"]) >= 2
    assert set(telemetry.worker_pids) <= set(trace["pids"])
    spans = [
        json.loads(line)
        for line in (tmp_path / "results" / "obs_whitebox.trace.ndjson")
        .read_text()
        .splitlines()
    ]
    names = {s["name"] for s in spans}
    assert any(name.startswith("store.lease") for name in names)
    assert any(s["cat"] == "kernel" for s in spans)
    assert "shard" in names and "run" in names
    # the result JSON round-trips the folded run-scoped totals
    payload = json.loads((tmp_path / "results" / "obs_whitebox.json").read_text())
    assert payload["telemetry"]["kernels"] == {"scope": "run", **kernels}
    assert payload["telemetry"]["attack_queries"]["query_samples"] == queries["query_samples"]
    snapshot = telemetry.snapshot()
    assert snapshot["worker_pids"] == sorted(set(telemetry.worker_pids))
    assert snapshot["trace"]["spans"] == trace["spans"]


def test_a_serial_run_spans_the_variant_conversion_and_kernel_priming(
    tmp_path, monkeypatch, obs_zoo_entry
):
    # a cell's warm-up converts the base model to its hardware variant and
    # primes the variant's fused GEMM kernels, once per process
    column = {"key": "m", "label": "m", "model": obs_zoo_entry, "variants": ["da"], "n_samples": 8}
    spec = ExperimentSpec(
        name="obs_da_accuracy",
        kind="accuracy",
        params={"columns": [column], "rows": [{"label": "DA", "variant": "da"}]},
    )
    span, handed = TRACER.span, []

    def recording(name, cat="repro", **args):
        handed.append((name, span(name, cat, **args)))
        return handed[-1][1]

    monkeypatch.setattr(TRACER, "span", recording)
    warm_ups = ("variant.convert", "kernel.prime")
    for traced in (True, False):
        clear_model_caches()
        TRACER.configure(enabled=traced, directory=tmp_path / "spool")
        del handed[:]
        results = tmp_path / f"results-{traced}"
        runner = Runner(
            fast=True, cache_dir=tmp_path / f"cells-{traced}", results_dir=results, jobs=1
        )
        try:
            runner.run(spec)
        finally:
            clear_model_caches()
        warmed = [(name, s) for name, s in handed if name in warm_ups]
        assert [name for name, _ in warmed] == list(warm_ups)
        if not traced:  # untraced, each is the shared null span
            assert all(s is _NULL_SPAN for _, s in warmed)
    text = (tmp_path / "results-True" / "obs_da_accuracy.trace.ndjson").read_text()
    spans = [json.loads(line) for line in text.splitlines()]
    assert [s["args"] for s in spans if s["name"] == "variant.convert"] == [
        {"model": obs_zoo_entry, "variant": "da"}
    ]
    assert [s["args"] for s in spans if s["name"] == "kernel.prime"] == [{"variant": "da"}]


def test_serial_run_snapshot_has_no_worker_pids(tmp_path):
    runner = Runner(fast=True, cache_dir=tmp_path / "cells", jobs=1)
    runner.run("table07_energy_delay")
    snapshot = runner.telemetry.snapshot()
    assert snapshot["worker_pids"] == []
    assert "kernels" in snapshot


# ---------------------------------------------------------------- trace CLI
def make_trace_file(tmp_path):
    TRACER.configure(enabled=True, directory=tmp_path / "spool")
    scope = TRACER.begin_run("cli")
    with TRACER.span("cell", cat="runner", kind="energy", digest="abc123def456"):
        with TRACER.span("shard", cat="engine", shard=0):
            pass
    merged = tmp_path / "cli.trace.ndjson"
    TRACER.end_run(scope, merged)
    return merged


def test_trace_cli_summary_and_chrome_export(tmp_path, capsys):
    merged = make_trace_file(tmp_path)
    chrome_out = tmp_path / "chrome.json"
    assert cli_main(["trace", str(merged), "--chrome", str(chrome_out)]) == 0
    out = capsys.readouterr().out
    assert "2 spans from 1 process(es)" in out
    assert "cell timeline" in out and "digest=abc123def456" in out
    doc = json.loads(chrome_out.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert len(doc["traceEvents"]) == 2
    assert all(e["ph"] == "X" for e in doc["traceEvents"])
    assert min(e["ts"] for e in doc["traceEvents"]) == 0.0


def test_trace_cli_json_aggregate(tmp_path, capsys):
    merged = make_trace_file(tmp_path)
    assert cli_main(["trace", str(merged), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == "trace" and doc["spans"] == 2
    assert {row["name"] for row in doc["by_span"]} == {"cell", "shard"}


def test_trace_cli_reads_result_json(tmp_path, capsys):
    runner = Runner(fast=True, cache_dir=tmp_path / "cells", results_dir=tmp_path, jobs=1)
    runner.run("table07_energy_delay")
    result_path = tmp_path / "table07_energy_delay.json"
    assert cli_main(["trace", str(result_path)]) == 0
    out = capsys.readouterr().out
    assert "synthetic timeline from result telemetry" in out
    assert "kind=energy" in out
    spans, source = load_spans(result_path)
    assert source == "result" and spans
    assert chrome_trace(spans)["traceEvents"]
    assert "1 process(es)" in summarize(spans, source)


def test_trace_cli_missing_file(tmp_path, capsys):
    assert cli_main(["trace", str(tmp_path / "nope.ndjson")]) == 2
    assert "cannot read" in capsys.readouterr().err
