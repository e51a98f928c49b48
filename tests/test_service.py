"""End-to-end tests for the robustness-evaluation service (``repro.service``).

The service runs in-process on a background thread (real sockets, ephemeral
port) and is exercised through plain ``urllib`` HTTP clients -- exactly what
an external consumer would do.  The centrepiece is the concurrency test: two
clients submitting the overlapping Figure 8/9 and Figure 10/11 experiments
concurrently, with the streamed cell telemetry proving every shared cell was
computed exactly once and the results byte-identical to a serial run.
"""

import asyncio
import json
import re
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.zoo import ZOO
from repro.pipeline import NONDETERMINISTIC_RESULT_FIELDS, ExperimentSpec, Runner
from repro.service import Service

OVERLAPPING = ("fig08_09_whitebox_l2", "fig10_11_whitebox_psnr_mse")


class ServiceThread:
    """A live service on an ephemeral port, event loop on a daemon thread."""

    def __init__(self, tmp_path, workers=2, **kwargs):
        self.service = Service(
            results_dir=tmp_path / "results",
            cache_dir=tmp_path / "cells",
            workers=workers,
            **kwargs,
        )
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(timeout=30), "service failed to start"

    def _run(self):
        asyncio.set_event_loop(self._loop)
        self._server = self._loop.run_until_complete(self.service.start(port=0))
        host, port = self._server.sockets[0].getsockname()[:2]
        self.base = f"http://{host}:{port}"
        self._ready.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self.service.close())
        self._server.close()
        self._loop.run_until_complete(self._server.wait_closed())
        self._loop.close()

    def close(self):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    # ------------------------------------------------------------ clients
    def get(self, path, timeout=120):
        with urllib.request.urlopen(self.base + path, timeout=timeout) as response:
            return json.loads(response.read())

    def post(self, path, payload, timeout=120):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())

    def stream_events(self, job_id, timeout=600):
        """All NDJSON events of a job, blocking until the stream terminates."""
        url = f"{self.base}/jobs/{job_id}/events"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            return [json.loads(line) for line in response if line.strip()]

    def run_job(self, payload):
        """Submit, follow the event stream to completion, return everything."""
        status, job = self.post("/jobs", payload)
        assert status == 202
        events = self.stream_events(job["id"])
        final = self.get(f"/jobs/{job['id']}")
        return job, events, final


@pytest.fixture()
def service(tmp_path):
    thread = ServiceThread(tmp_path)
    yield thread
    thread.close()


def deterministic(payload):
    payload = dict(payload)
    for field in NONDETERMINISTIC_RESULT_FIELDS:
        payload.pop(field, None)
    return json.dumps(payload, sort_keys=True)


# -------------------------------------------------------------- HTTP basics
def test_health_and_catalog(service):
    health = service.get("/health")
    assert health["status"] == "ok" and health["queue"]["jobs_total"] == 0
    names = service.get("/experiments")["experiments"]
    assert set(OVERLAPPING) <= set(names)
    spec = service.get("/experiments/fig08_09_whitebox_l2")
    # the advertised spec is the submittable wire format, round-trip exact
    assert ExperimentSpec.from_dict(spec).digest() == ExperimentSpec.from_dict(
        json.loads(json.dumps(spec))
    ).digest()


def test_error_responses(service):
    with pytest.raises(urllib.error.HTTPError) as err:
        service.get("/experiments/no_such_table")
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        service.get("/no/such/endpoint")
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        service.post("/experiments", {})  # POST on a GET route
    assert err.value.code == 405
    with pytest.raises(urllib.error.HTTPError) as err:
        service.post("/jobs", {"experiments": ["no_such_table"]})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        service.post("/jobs", {"wrong": "shape"})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        service.get("/results/fig08_09_whitebox_l2")  # nothing computed yet
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        service.get("/results/..")  # traversal attempts are rejected
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        # an encoded slash decodes before routing: three segments, no route
        service.get("/results/..%2Fsneaky")
    assert err.value.code == 404


# ----------------------------------------------------- the E2E acceptance test
def test_concurrent_overlapping_jobs_dedup_and_match_serial(service, tmp_path):
    """Two concurrent clients, overlapping experiments: shared cells computed
    once, both streams live, results byte-identical to a serial run."""
    with ThreadPoolExecutor(max_workers=2) as clients:
        futures = [
            clients.submit(service.run_job, {"experiments": [name], "fast": True})
            for name in OVERLAPPING
        ]
        outcomes = [future.result(timeout=600) for future in futures]

    for _job, events, final in outcomes:
        assert final["status"] == "succeeded", final.get("error")
        kinds = [event["event"] for event in events]
        # the full lifecycle streamed: queued -> running -> cells -> result -> done
        assert kinds[0] == "status" and kinds[-1] == "status"
        assert "cell" in kinds and "result" in kinds
        assert [event["seq"] for event in events] == list(range(len(events)))

    # exactly-once: across BOTH jobs' telemetry every cell digest was
    # computed once -- the overlapping whitebox cells were computed by
    # whichever job won the lease and streamed as hits to the other
    cell_events = [
        event
        for _job, events, _final in outcomes
        for event in events
        if event["event"] == "cell"
    ]
    computed = [e["digest"] for e in cell_events if e["status"] == "computed"]
    assert len(computed) == len(set(computed)), "a shared cell was computed twice"
    per_job = [
        {e["digest"] for e in events if e["event"] == "cell"}
        for _job, events, _final in outcomes
    ]
    shared = per_job[0] & per_job[1]
    assert shared, "the fig08/09 and fig10/11 whitebox grids should share cells"
    hits = {e["digest"] for e in cell_events if e["status"] == "hit"}
    assert shared <= set(computed) | hits  # every shared cell was seen by both

    # byte-identical to a direct serial run on a fresh cache
    serial = Runner(fast=True, cache_dir=tmp_path / "serial-cells", jobs=1)
    for name, serial_result in zip(OVERLAPPING, serial.run_many(list(OVERLAPPING))):
        served = service.get(f"/results/{name}")
        assert deterministic(served) == deterministic(serial_result.to_json())


def test_warm_resubmit_is_instant(service):
    first_job, _events, first = service.run_job(
        {"experiments": ["fig13_bfloat16_noise"], "fast": True}
    )
    assert first["status"] == "succeeded"
    # resubmit: planning sees every cell in the store
    start = time.perf_counter()
    _job, _events, final = service.run_job(
        {"experiments": ["fig13_bfloat16_noise"], "fast": True}
    )
    wall = time.perf_counter() - start
    assert final["status"] == "succeeded"
    dedup = final["dedup"]
    assert dedup["cells_cached"] == dedup["cells_total"] > 0
    assert dedup["cells_new"] == 0
    assert final["summary"]["cache_misses"] == 0
    # the acceptance bound: server-side execution of an all-hits job is
    # milliseconds; the full submit+stream+poll round trip stays under 1s
    assert final["elapsed_seconds"] < 0.1
    assert wall < 1.0


def test_inline_spec_submission(service, tiny_model, digit_split):
    name = "service_test_zoo"
    ZOO.register(name, lambda fast=False: (tiny_model, digit_split), overwrite=True)
    try:
        spec = ExperimentSpec(
            name="service_inline_whitebox",
            kind="whitebox",
            model=name,
            variants=("exact",),
            attacks=(("PGD", "pgd", {"epsilon": 0.1, "steps": 5}),),
            n_samples=4,
            params={"columns": ("success", "l2")},
        )
        # what `python -m repro info --json` emits is exactly what we POST
        wire = json.loads(json.dumps(spec.to_dict()))
        _job, events, final = service.run_job({"experiments": [wire], "fast": True})
        assert final["status"] == "succeeded", final.get("error")
        served = service.get("/results/service_inline_whitebox")
        direct = Runner(fast=True, cache_dir=service.service.cache_dir, jobs=1).run(spec)
        assert deterministic(served) == deterministic(direct.to_json())
        assert direct.cache_hits == 1  # the service's artifact was reused
    finally:
        ZOO.unregister(name)


def test_store_endpoints(service):
    service.run_job({"experiments": ["fig13_bfloat16_noise"], "fast": True})
    stats = service.get("/store/stats")
    assert stats["artifacts"] > 0 and stats["bytes"] > 0
    assert "noise_profile" in stats["namespaces"]
    report_status, report = service.post("/store/gc", {})
    assert report_status == 200
    assert report["evicted"] == 0  # no budget configured: a scan, not a purge
    assert report["scanned"] == stats["artifacts"]
    # an explicit budget in the request body forces eviction
    _status, purge = service.post("/store/gc", {"budget": 0})
    assert purge["evicted"] == stats["artifacts"]


def test_failed_job_reports_error(service, tiny_model, digit_split):
    name = "service_test_zoo_failing"
    ZOO.register(name, lambda fast=False: (tiny_model, digit_split), overwrite=True)
    try:
        spec = ExperimentSpec(
            name="service_failing",
            kind="whitebox",
            model=name,
            variants=("exact",),
            attacks=(("Nope", "no_such_attack", {}),),
            n_samples=2,
        )
        _job, events, final = service.run_job(
            {"experiments": [spec.to_dict()], "fast": True}
        )
        assert final["status"] == "failed"
        assert "no_such_attack" in final["error"]
        assert events[-1]["status"] == "failed"  # failure reached the stream
    finally:
        ZOO.unregister(name)


# -------------------------------------------------------------- observability
METRIC_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[+-]?[0-9.e+-]+)$'
)


def scrape_metrics(service):
    """GET /metrics raw; returns (content_type, {sample_name: value})."""
    with urllib.request.urlopen(service.base + "/metrics", timeout=60) as response:
        content_type = response.headers["Content-Type"]
        text = response.read().decode("utf-8")
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert METRIC_LINE.match(line), f"unparseable exposition line: {line!r}"
        name, _, value = line.partition(" ")
        samples[name] = float(value)
    return content_type, samples


def test_health_reports_uptime_and_version(service):
    first = service.get("/health")
    assert first["version"] and first["uptime_seconds"] >= 0
    time.sleep(0.05)
    second = service.get("/health")
    assert second["uptime_seconds"] > first["uptime_seconds"]


def test_metrics_prometheus_exposition(service):
    service.get("/health")  # guarantee at least one observed GET 200
    content_type, samples = scrape_metrics(service)
    assert content_type == "text/plain; version=0.0.4; charset=utf-8"
    version = service.get("/health")["version"]
    assert samples[f'repro_service_info{{version="{version}"}}'] == 1
    assert samples["repro_service_uptime_seconds"] > 0
    assert samples['repro_jobs{state="succeeded"}'] == 0
    assert samples['repro_cells_total{outcome="computed"}'] == 0
    assert samples['repro_http_requests_total{method="GET",status="200"}'] >= 1
    assert samples["repro_native_fallbacks_total"] >= 0
    # histogram invariants: buckets are cumulative, +Inf equals the count
    assert samples["repro_http_request_seconds_count"] >= 1
    assert (
        samples['repro_http_request_seconds_bucket{le="+Inf"}']
        == samples["repro_http_request_seconds_count"]
    )


def test_metrics_counters_move_with_a_job(service):
    _job, _events, final = service.run_job(
        {"experiments": ["fig13_bfloat16_noise"], "fast": True}
    )
    assert final["status"] == "succeeded"
    _content_type, samples = scrape_metrics(service)
    assert samples['repro_jobs{state="succeeded"}'] == 1
    assert samples['repro_cells_total{outcome="computed"}'] > 0
    assert samples["repro_store_bytes"] > 0
    assert samples['repro_http_requests_total{method="POST",status="202"}'] == 1
    # resubmitting the same experiment is all cache hits -- the hit counter moves
    _job2, _events2, final2 = service.run_job(
        {"experiments": ["fig13_bfloat16_noise"], "fast": True}
    )
    assert final2["status"] == "succeeded"
    _content_type, samples = scrape_metrics(service)
    assert samples['repro_cells_total{outcome="hit"}'] > 0
