"""The robustness-evaluation service: HTTP API over the job queue.

``python -m repro serve`` keeps one long-lived process warm (trained zoo
models stay memoised in-process; the artifact store keeps every computed
cell) and exposes the experiment pipeline over plain HTTP:

* ``GET  /health`` / ``GET /store/stats`` -- liveness and store telemetry
* ``GET  /metrics`` -- Prometheus text exposition (queue/job/cell counters,
  store occupancy + lease/eviction counters, kernel + attack-query process
  counters, request-latency histogram)
* ``GET  /experiments`` / ``GET /experiments/{name}`` -- the catalog, as the
  machine-readable specs ``POST /jobs`` accepts
* ``POST /jobs`` -- submit a batch ``{"experiments": [...], "fast": true}``
  (catalog names or inline spec objects); responds ``202`` with the job id
  and a dedup report (how many cells are cached / already in flight)
* ``GET  /jobs`` / ``GET /jobs/{id}`` -- queue listing and job snapshots
* ``GET  /jobs/{id}/events`` -- the job's progress stream as NDJSON
  (``?from=N`` resumes mid-stream); terminates when the job does
* ``GET  /results/{name}`` -- a finished experiment's JSON result, served
  straight from the results directory (instant for anything ever computed)
* ``POST /store/gc`` -- run artifact-store eviction on demand
* ``GET/PUT /store/artifacts/{namespace}/{digest}`` (+ ``HEAD``, and the
  ``.../meta`` sidecar) -- the artifact-exchange surface behind
  ``serve --share-store``; bodies travel with an ``X-Repro-Sha256``
  integrity header both ways (see ``docs/store-remote.md``)

Everything is stdlib: the HTTP layer is :mod:`repro.service.http`, jobs run
on :mod:`repro.service.jobs`, artifacts live in :mod:`repro.store`.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.experiments.zoo import CACHE_DIR
from repro.obs import Histogram, MetricsRenderer
from repro.pipeline.runner import Runner, get_experiment, list_experiments
from repro.service.http import HttpError, HttpServer, Request, Response
from repro.service.jobs import JOB_STATES, JobQueue, SubmitError
from repro.store import ArtifactStore, parse_size

#: what a Prometheus scraper expects back from ``GET /metrics``
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: experiment names are catalog identifiers, never paths
_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


class Service:
    """One service instance: job queue + artifact store + route table."""

    def __init__(
        self,
        results_dir: Union[str, Path] = "results",
        cache_dir: Optional[Union[str, Path]] = None,
        workers: int = 2,
        jobs: Union[int, str, None] = 1,
        fast_default: bool = False,
        progress=None,
        share_store: bool = False,
    ):
        self.results_dir = Path(results_dir)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.default_jobs = jobs
        self.fast_default = bool(fast_default)
        self.progress = progress
        self.share_store = bool(share_store)
        self.store = ArtifactStore(
            self.cache_dir if self.cache_dir is not None else CACHE_DIR / "pipeline"
        )
        self.queue = JobQueue(self._make_runner, workers=workers)
        self.http = HttpServer()
        self._started_monotonic: Optional[float] = None
        self._request_latency = Histogram()
        self._requests: Dict[Tuple[str, int], int] = {}  # (method, status) -> count
        self.http.on_request = self._observe_request
        self._register_routes()

    def _observe_request(self, method: str, path: str, status: int, seconds: float) -> None:
        """Per-request latency observer (labels stay low-cardinality: no paths)."""
        key = (method, int(status))
        self._requests[key] = self._requests.get(key, 0) + 1
        self._request_latency.observe(seconds)

    def uptime_seconds(self) -> Optional[float]:
        if self._started_monotonic is None:
            return None
        return time.monotonic() - self._started_monotonic

    def _make_runner(self, fast: bool = False, jobs: Union[int, str, None] = None) -> Runner:
        return Runner(
            fast=fast,
            results_dir=self.results_dir,
            cache_dir=self.cache_dir,
            jobs=self.default_jobs if jobs is None else jobs,
            progress=self.progress,
        )

    # -------------------------------------------------------------- routes
    def _register_routes(self) -> None:
        route = self.http.route

        @route("GET", "/health")
        def health(request: Request):
            import repro

            uptime = self.uptime_seconds()
            return {
                "status": "ok",
                "service": "repro",
                "version": repro.__version__,
                "uptime_seconds": round(uptime, 3) if uptime is not None else 0.0,
                "queue": self.queue.stats(),
            }

        @route("GET", "/metrics")
        def metrics(request: Request):
            return Response(
                text=self.render_metrics(), content_type=PROMETHEUS_CONTENT_TYPE
            )

        @route("GET", "/experiments")
        def experiments(request: Request):
            names = list_experiments()
            if request.query.get("full"):
                return {"experiments": [get_experiment(n).to_dict() for n in names]}
            return {"experiments": names}

        @route("GET", "/experiments/{name}")
        def experiment(request: Request, name: str):
            try:
                spec = get_experiment(name)
            except KeyError:
                raise HttpError(404, f"no such experiment: {name}") from None
            return spec.to_dict()

        @route("POST", "/jobs")
        def submit(request: Request):
            payload = request.json()
            if payload is None:
                raise HttpError(400, "POST /jobs needs a JSON body")
            try:
                job = self.queue.submit(payload)
            except SubmitError as exc:
                raise HttpError(400, str(exc)) from None
            return Response(202, job.snapshot())

        @route("GET", "/jobs")
        def jobs(request: Request):
            return {
                "jobs": [job.snapshot() for job in self.queue.jobs.values()],
                "stats": self.queue.stats(),
            }

        @route("GET", "/jobs/{job_id}")
        def job_detail(request: Request, job_id: str):
            return self._job(job_id).snapshot()

        @route("GET", "/jobs/{job_id}/events")
        def job_events(request: Request, job_id: str):
            job = self._job(job_id)
            try:
                from_seq = int(request.query.get("from", "0"))
            except ValueError:
                raise HttpError(400, "'from' must be an integer sequence number") from None

            async def ndjson():
                async for event in self.queue.stream(job, from_seq):
                    yield json.dumps(event, sort_keys=False)

            return ndjson()

        @route("GET", "/results/{name}")
        def result(request: Request, name: str):
            if not _NAME_RE.match(name) or name.startswith("."):
                raise HttpError(400, f"invalid experiment name: {name!r}")
            path = self.results_dir / f"{name}.json"
            try:
                text = path.read_text()
            except OSError:
                raise HttpError(
                    404, f"no result for {name!r} yet (submit it via POST /jobs)"
                ) from None
            return Response(text=text, content_type="application/json")

        @route("GET", "/store/stats")
        def store_stats(request: Request):
            return self.store.stats()

        @route("POST", "/store/gc")
        def store_gc(request: Request):
            payload = request.json(default={}) or {}
            budget = parse_size(payload.get("budget")) if "budget" in payload else None
            return self.store.gc(budget=budget)

        if self.share_store:
            self._register_artifact_routes()

    def _register_artifact_routes(self) -> None:
        """The ``--share-store`` artifact-exchange surface.

        Not registered at all unless sharing is enabled: a service that was
        not asked to share its cache answers 404 here, indistinguishable
        from a service without the feature.  Bodies carry an
        ``X-Repro-Sha256`` header of the exact bytes in both directions; a
        PUT whose body does not hash to the client's claim is refused (400).
        """
        from repro.store.remote import CHECKSUM_HEADER, body_checksum

        route = self.http.route

        def checksummed(value: Any) -> Response:
            text = json.dumps(value, sort_keys=True)
            return Response(
                text=text,
                content_type="application/json",
                headers={CHECKSUM_HEADER: body_checksum(text.encode("utf-8"))},
            )

        @route("GET", "/store/artifacts/{namespace}/{digest}")
        def artifact_get(request: Request, namespace: str, digest: str):
            ns, dg = self._artifact_key(namespace, digest)
            value = self.store.get(ns, dg)
            if value is None:
                raise HttpError(404, f"no artifact {ns}/{dg}")
            return checksummed(value)

        @route("GET", "/store/artifacts/{namespace}/{digest}/meta")
        def artifact_meta(request: Request, namespace: str, digest: str):
            ns, dg = self._artifact_key(namespace, digest)
            meta = self.store.get_meta(ns, dg)
            if meta is None:
                raise HttpError(404, f"no meta sidecar for {ns}/{dg}")
            return checksummed(meta)

        @route("PUT", "/store/artifacts/{namespace}/{digest}")
        def artifact_put(request: Request, namespace: str, digest: str):
            ns, dg = self._artifact_key(namespace, digest)
            claimed = request.headers.get(CHECKSUM_HEADER.lower())
            if not claimed or claimed != body_checksum(request.body):
                raise HttpError(
                    400, f"body checksum mismatch (or {CHECKSUM_HEADER} missing)"
                )
            envelope = request.json()
            if not isinstance(envelope, dict) or "value" not in envelope:
                raise HttpError(400, 'PUT body must be {"value": ..., "meta"?: {...}}')
            meta = envelope.get("meta")
            if meta is not None and not isinstance(meta, dict):
                raise HttpError(400, "meta sidecar must be a JSON object")
            self.store.put(ns, dg, envelope["value"], meta=meta)
            return Response(201, {"stored": True, "namespace": ns, "digest": dg})

    @staticmethod
    def _artifact_key(namespace: str, digest: str) -> Tuple[str, str]:
        """Validate route params before they touch the filesystem.

        Route ``{param}`` segments arrive percent-decoded, so a crafted
        ``%2F`` or ``%2E%2E`` could otherwise smuggle separators into store
        paths; only plain single-segment names get through.
        """
        for label, part in (("namespace", namespace), ("digest", digest)):
            if not _NAME_RE.match(part) or part.startswith("."):
                raise HttpError(400, f"invalid artifact {label}: {part!r}")
        return namespace, digest

    def _job(self, job_id: str):
        job = self.queue.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        return job

    # -------------------------------------------------------------- metrics
    def render_metrics(self) -> str:
        """The service's state as Prometheus text exposition (``GET /metrics``).

        Sources: the job queue (jobs by state, cell hit/computed counters),
        the artifact store (occupancy plus the :data:`repro.store.STORE_STATS`
        lease/eviction counters), the kernel-engine and attack-query process
        counters, and the HTTP layer's request latency histogram.  Process
        counters are since-process-start totals, which is exactly the
        monotonic-counter contract Prometheus wants.
        """
        import repro
        from repro.arith.kernels import KERNEL_STATS
        from repro.attacks.base import QUERY_STATS
        from repro.store import STORE_STATS

        out = MetricsRenderer()
        out.gauge(
            "repro_service_info",
            "Service identity (constant 1; version carried as a label).",
            samples=[({"version": repro.__version__}, 1)],
        )
        uptime = self.uptime_seconds()
        out.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the service started accepting connections.",
            round(uptime, 3) if uptime is not None else 0.0,
        )

        qstats = self.queue.stats()
        by_status = dict(qstats.get("by_status", {}))
        out.gauge(
            "repro_jobs",
            "Jobs known to the queue, by lifecycle state.",
            samples=[
                ({"state": state}, by_status.get(state, 0)) for state in JOB_STATES
            ],
        )
        out.counter(
            "repro_job_retries_total",
            "Job attempts requeued after a retryable execution failure.",
            qstats.get("job_retries", 0),
        )
        out.gauge("repro_job_workers", "Concurrent runner threads.", qstats["workers"])
        out.gauge(
            "repro_inflight_cells",
            "Cell digests currently owned by a running job.",
            qstats["inflight_cells"],
        )
        out.counter(
            "repro_cells_total",
            "Pipeline cells resolved across all jobs, by outcome.",
            samples=[
                ({"outcome": "hit"}, self.queue.cells_hit),
                ({"outcome": "computed"}, self.queue.cells_computed),
            ],
        )

        store = self.store.stats()
        out.gauge(
            "repro_store_bytes", "Bytes of artifacts in the store.", store["bytes"]
        )
        out.gauge(
            "repro_store_artifacts", "Artifact count in the store.", store["artifacts"]
        )
        if store.get("budget_bytes"):
            out.gauge(
                "repro_store_budget_bytes",
                "Configured store eviction budget.",
                store["budget_bytes"],
            )
        out.gauge(
            "repro_store_active_leases",
            "Store leases currently held by writers.",
            store["active_leases"],
        )
        store_counters = STORE_STATS.snapshot()
        out.counter(
            "repro_store_events_total",
            "Artifact-store lease and eviction events since process start.",
            samples=[
                ({"event": name}, value)
                for name, value in sorted(store_counters.items())
                if name != "lease_wait_us"
            ],
        )
        out.counter(
            "repro_store_lease_wait_seconds_total",
            "Total seconds spent waiting on foreign store leases.",
            store_counters.get("lease_wait_us", 0) / 1e6,
        )

        from repro.store import BREAKER_STATES, REMOTE_STATS, all_breakers

        out.counter(
            "repro_remote_events_total",
            "Remote artifact-tier client events since process start "
            "(zero unless this process talks to a --share-store peer).",
            samples=[
                ({"event": name}, value)
                for name, value in sorted(REMOTE_STATS.snapshot().items())
            ],
        )
        breaker_samples = []
        for breaker in all_breakers():
            current, _failures = breaker.snapshot()
            breaker_samples.extend(
                ({"peer": breaker.name, "state": state}, 1 if state == current else 0)
                for state in BREAKER_STATES
            )
        if breaker_samples:
            out.gauge(
                "repro_remote_breaker_state",
                "Remote-peer circuit-breaker state (1 on the current state).",
                samples=breaker_samples,
            )

        from repro.faults import FAULT_POINTS, FAULT_STATS

        fault_counters = FAULT_STATS.snapshot()
        by_field = {point.replace(".", "_"): point for point in FAULT_POINTS}
        out.counter(
            "repro_fault_checks_total",
            "Armed fault-point evaluations since process start (service "
            "process only; zero unless REPRO_FAULTS is set).",
            fault_counters.get("checks", 0),
        )
        out.counter(
            "repro_fault_injections_total",
            "Injected faults fired since process start, by catalog point.",
            samples=[
                ({"point": point}, fault_counters.get(field, 0))
                for field, point in sorted(by_field.items())
            ],
        )

        out.counter(
            "repro_kernel_events_total",
            "Kernel-engine counters since process start (service process only; "
            "per-run worker activity is folded into each result's telemetry).",
            samples=[
                ({"event": name}, value)
                for name, value in sorted(KERNEL_STATS.snapshot().items())
            ],
        )
        from repro.nn.native import NATIVE_STATS

        out.counter(
            "repro_native_fallbacks_total",
            "Times this process could not build or load the native conv/pool "
            "kernels and kept the numpy path (0 or 1: resolved once per process).",
            NATIVE_STATS.fallbacks,
        )
        out.counter(
            "repro_attack_query_events_total",
            "Attack query counters since process start (service process only).",
            samples=[
                ({"event": name}, value)
                for name, value in sorted(QUERY_STATS.snapshot().items())
            ],
        )

        out.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method and status.",
            samples=[
                ({"method": method, "status": status}, count)
                for (method, status), count in sorted(self._requests.items())
            ],
        )
        out.histogram(
            "repro_http_request_seconds",
            "Wall-clock request latency (request parsed to response flushed).",
            self._request_latency,
        )
        return out.render()

    # ------------------------------------------------------------- lifecycle
    async def start(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        """Start workers + listener; returns the ``asyncio`` server object.

        ``port=0`` binds an ephemeral port; read it back from
        ``server.sockets[0].getsockname()`` (the tests do).
        """
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self._started_monotonic = time.monotonic()
        self.queue.start()
        return await self.http.start(host, port)

    async def close(self) -> None:
        await self.queue.close()


async def serve_async(
    host: str = DEFAULT_HOST, port: int = DEFAULT_PORT, **service_kwargs
) -> None:
    """Run the service until cancelled."""
    service = Service(**service_kwargs)
    server = await service.start(host, port)
    bound = server.sockets[0].getsockname()
    print(f"repro.service listening on http://{bound[0]}:{bound[1]}", flush=True)
    try:
        async with server:
            await server.serve_forever()
    finally:
        await service.close()


def serve(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT, **service_kwargs) -> int:
    """Blocking entry point behind ``python -m repro serve``."""
    try:
        asyncio.run(serve_async(host, port, **service_kwargs))
    except KeyboardInterrupt:
        print("repro.service: shutting down", file=sys.stderr)
    return 0
