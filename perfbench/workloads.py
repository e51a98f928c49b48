"""The three workloads: set-up, measured repetitions and output checks.

Every run works in a private directory under ``.perfbench_work/`` in the
checkout: its own zoo cache (``REPRO_DA_CACHE``), cell stores and results
directories, removed when the run ends.  Programs run as ``python -m repro``
with ``PYTHONPATH`` set to the checkout's ``src/`` and every inherited
``REPRO_*`` variable dropped, so no run reads or writes the user's zoo cache
or the repository's ``results/``.

BLAS runs single-threaded, so ``JOBS`` workers x BLAS threads <= nproc.  The
pin is also what keeps the golden fingerprints reproducible: the evaluation
path is batch- and thread-invariant, but zoo training's GEMMs round
differently with more OpenBLAS threads (``run.py --pin-check`` shows it).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from golden import fingerprint, load_golden
from ledger import layer_metrics, load_spool
from spec import JOBS, ROOT
from stats import tail

SRC = ROOT / "src"
SHIM = Path(__file__).resolve().parent / "shim.py"
WORK = ROOT / ".perfbench_work"

#: the fast-profile catalog, fixed here so parent and change run the same work
CATALOG = (
    "fig03_axfpm_noise",
    "fig04_approx_convolution",
    "fig08_09_whitebox_l2",
    "fig10_11_whitebox_psnr_mse",
    "fig12_confidence_cdf",
    "fig13_bfloat16_noise",
    "fig15_heap_noise",
    "fig16_heatmaps",
    "table02_transferability_mnist",
    "table03_transferability_cifar",
    "table04_blackbox_mnist",
    "table05_da_vs_dq",
    "table06_accuracy",
    "table07_energy_delay",
    "table08_multiplier_accuracy",
    "table09_mantissa_energy",
    "table10_heap_transferability",
)
#: experiments that need an AlexNet or DQ model (the expensive zoo entries)
_OBJECT_MODELS = ("table03_transferability_cifar", "table05_da_vs_dq", "table06_accuracy")
SERVICE_EXPERIMENTS = tuple(name for name in CATALOG if name not in _OBJECT_MODELS)

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

#: a run must finish within the driver's 180 s; subprocess timeouts share this
RUN_BUDGET_S = 170.0

#: import probes per set-up (median reported)
IMPORT_PROBES = 9

#: cells_cold repetitions per run, at least (~5 s each)
CELLS_MIN_REPS = 6

#: trained fast zoos kept between runs, one per program source digest
ZOO_CACHE = ROOT / ".perfbench_cache"

_IMPORT_PROBE = "import repro.cli, repro.pipeline.catalog"
_ZOO_SETUP = (
    # two processes, longest first: DQ trains two models, the rest four
    "from repro.experiments.zoo import ZOO; ZOO.create('dq_objects', fast=True)",
    "from repro.experiments.zoo import ZOO\n"
    "for name, kw in (('lenet_digits', {}), ('alexnet_objects', {}),\n"
    "                 ('substitute_digits', {'victim': 'exact'}),\n"
    "                 ('substitute_digits', {'victim': 'da'})):\n"
    "    ZOO.create(name, fast=True, **kw)",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def shuffled_passes(seed: int, names) -> Iterator[List[str]]:
    """Endless seeded permutations of ``names``: the workload's input order."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(list(names), len(names))


def client_sequences(seed: int, names, clients: int) -> List[Iterator[str]]:
    """Each service client's request order: seeded passes over its own share.

    Client ``i`` owns ``names[i::clients]``, so no experiment is ever in
    flight twice.  (Two concurrent jobs for one experiment race on its
    ``results/<name>.json`` temp file -- a program defect this workload
    leaves to its own issue.)
    """

    def sequence(index: int) -> Iterator[str]:
        for order in shuffled_passes(seed * clients + index, list(names)[index::clients]):
            yield from order

    return [sequence(index) for index in range(clients)]


# ------------------------------------------------------------------ processes
@dataclass
class Proc:
    returncode: int
    wall: float
    rss_mb: float


class Sandbox:
    """One run's private directory, deadline and program environment."""

    def __init__(self, workload: str, pin: bool = True):
        self.dir = WORK / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.pin = pin
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("run budget exhausted")
        return left

    def env(self, zoo_dir: Path) -> Dict[str, str]:
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key not in ("PYTHONPATH",) + BLAS_VARS
        }
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_DA_CACHE"] = str(zoo_dir)
        if self.pin:
            env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
        return env

    def launch(self, args: List[str], zoo_dir: Path, log_name: str) -> Tuple[subprocess.Popen, float]:
        with open(self.dir / log_name, "ab") as log:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                cwd=self.dir,
                env=self.env(zoo_dir),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        return proc, start

    def reap(self, proc: subprocess.Popen, start: float) -> Proc:
        """Wait for ``proc`` (killing its group at the deadline); wall and peak RSS.

        ``wait4`` reports the largest RSS of the process and every descendant
        it waited for -- the CLI joins its pool workers, so that is the tree.
        """
        timer = threading.Timer(self.remaining(), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the program left behind
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def run(self, args: List[str], zoo_dir: Path, log_name: str) -> Proc:
        proc, start = self.launch(args, zoo_dir, log_name)
        return self.reap(proc, start)

    def check(self, proc: Proc, what: str, log_name: str) -> None:
        if proc.returncode != 0:
            tail_text = (self.dir / log_name).read_text(errors="replace")[-2000:]
            raise RuntimeError(f"{what} exited {proc.returncode}:\n{tail_text}")

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ------------------------------------------------------------------ CLI runs
@dataclass
class Rep:
    """One ``python -m repro run`` invocation and what it produced."""

    proc: Proc
    latencies_ms: List[float]
    failed: List[str]
    attempted: int
    cells_computed: int


def cli_rep(
    box: Sandbox, names: List[str], zoo_dir: Path, tag: str, golden: Dict[str, str],
    spool: Optional[Path] = None,
) -> Rep:
    """Run ``names`` through the CLI into fresh cell/result dirs and check them."""
    cells, results = box.dir / f"cells-{tag}", box.dir / f"results-{tag}"
    cli = [
        "run", *names, "--fast", "--jobs", str(JOBS), "--quiet",
        "--cache-dir", str(cells), "--results-dir", str(results),
    ]
    args = [str(SHIM), str(spool), *cli] if spool is not None else ["-m", "repro", *cli]
    launched = time.time()
    proc = box.run(args, zoo_dir, f"{tag}.log")
    latencies, failed, computed = [], [], 0
    for name in names:
        path = results / f"{name}.json"
        try:
            text = path.read_text()
            mtime = path.stat().st_mtime
        except OSError:
            failed.append(name)
            continue
        computed += json.loads(text).get("cache", {}).get("misses", 0)
        if proc.returncode != 0 or fingerprint(text) != golden.get(name):
            failed.append(name)
            continue
        latencies.append((mtime - launched) * 1000.0)
    shutil.rmtree(cells, ignore_errors=True)
    return Rep(proc, latencies, failed, len(names), computed)


def _cli_end_to_end(setup_s: float, reps: List[Rep]) -> Tuple[Dict[str, float], Dict[str, int], dict]:
    """End-to-end metrics over CLI repetitions.

    A job is one experiment; its latency is the time from launching the CLI
    to its result file.  Median and tail are taken per repetition (17
    samples: the tail rule falls back to the maximum) and the median over
    repetitions is reported, so the statistic does not change with the
    number of repetitions that fit in the run.
    """
    walls = [r.proc.wall for r in reps]
    p50s, tails, tail_ps = [], [], []
    for rep in reps:
        latencies = rep.latencies_ms or [1000.0 * rep.proc.wall]
        p, value = tail(latencies)
        p50s.append(statistics.median(latencies))
        tails.append(value)
        tail_ps.append(p)
    done = sum(len(r.latencies_ms) for r in reps)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": max(r.proc.rss_mb for r in reps),
        "job_latency_p50_ms": statistics.median(p50s),
        "job_latency_tail_ms": statistics.median(tails),
        "jobs_per_s": done / sum(walls),
    }
    samples = {"wall_s": len(walls), "peak_rss_mb": len(reps), "jobs_per_s": len(reps)}
    samples.update(job_latency_p50_ms=done, job_latency_tail_ms=done)
    return metrics, samples, {"tail_percentile": max(tail_ps)}


@dataclass
class Outcome:
    metrics: Dict[str, float]
    samples: Dict[str, int]
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)


def _traced_cli(box: Sandbox, seconds: float, run_rep, min_reps: int) -> Outcome:
    """Untraced repetitions as in an untraced run, then one traced repetition.

    The per-layer metrics come from the traced repetition; its wall minus
    the untraced median is the tracing overhead.
    """
    plain = _measure_reps(box, seconds, run_rep, min_reps)
    untraced_wall = statistics.median(r.proc.wall for r in plain)
    spool = box.dir / "spool"
    spool.mkdir()
    traced = run_rep("traced", spool)
    spans, meta = load_spool(spool)
    main_pid = next(pid for pid, m in meta.items() if m.get("main"))
    window = (meta[main_pid]["t0"], meta[main_pid]["t1"])
    metrics = layer_metrics(spans, main_pid, window, JOBS)
    metrics["pipeline.cells_computed"] = traced.cells_computed
    for name in ("submit_ms", "queue_wait_ms", "run_ms", "result_fetch_ms"):
        metrics[f"service.{name}"] = 0.0
    metrics["trace.overhead_s"] = traced.proc.wall - untraced_wall
    both = plain + [traced]
    details = {
        "traced_wall_s": traced.proc.wall,
        "untraced_wall_s": untraced_wall,
        "unattributed_share": metrics["trace.unattributed_s"] / (window[1] - window[0]),
        "spans": len(spans),
        "pids": len({s.pid for s in spans}),
        "failed_experiments": sorted({n for r in both for n in r.failed}),
    }
    return Outcome(
        metrics, {}, sum(r.attempted for r in both), sum(len(r.failed) for r in both), details
    )


def _measure_reps(box: Sandbox, seconds: float, run_rep, min_reps: int) -> List[Rep]:
    """Repetitions until ``seconds`` have elapsed and ``min_reps`` are done."""
    reps: List[Rep] = []
    start = perf_counter()
    while len(reps) < min_reps or perf_counter() - start < seconds:
        reps.append(run_rep(f"rep{len(reps)}", None))
    return reps


def _cli_outcome(setup_s: float, setup_n: int, reps: List[Rep]) -> Outcome:
    metrics, samples, details = _cli_end_to_end(setup_s, reps)
    samples["setup_s"] = setup_n
    details["failed_experiments"] = sorted({n for r in reps for n in r.failed})
    return Outcome(
        metrics, samples, sum(r.attempted for r in reps), sum(len(r.failed) for r in reps), details
    )


def import_probes(box: Sandbox) -> float:
    """Set-up step: median wall of importing the program (bytecode, page cache)."""
    walls = []
    for _ in range(IMPORT_PROBES):
        proc = box.run(["-c", _IMPORT_PROBE], box.dir / "probe-zoo", "setup.log")
        box.check(proc, "import probe", "setup.log")
        walls.append(proc.wall)
    return statistics.median(walls)


def catalog_cold(box: Sandbox, seed: int, seconds: float, trace: bool) -> Outcome:
    """``run all --fast --jobs 2`` from an empty zoo and an empty cell store."""
    golden = load_golden()
    setup_s = import_probes(box)
    orders = shuffled_passes(seed, CATALOG)

    def run_rep(tag: str, spool: Optional[Path]) -> Rep:
        zoo = box.dir / f"zoo-{tag}"
        rep = cli_rep(box, next(orders), zoo, tag, golden, spool)
        shutil.rmtree(zoo, ignore_errors=True)
        return rep

    if trace:
        return _traced_cli(box, seconds, run_rep, 1)
    return _cli_outcome(setup_s, IMPORT_PROBES, _measure_reps(box, seconds, run_rep, 1))


def train_fast_zoo(box: Sandbox, zoo: Path) -> float:
    """Train every fast zoo entry into ``zoo``, two processes at once."""
    start = perf_counter()
    launched = [box.launch(["-c", code], zoo, f"zoo{i}.log") for i, code in enumerate(_ZOO_SETUP)]
    for i, (proc, began) in enumerate(launched):
        box.check(box.reap(proc, began), "zoo training", f"zoo{i}.log")
    return perf_counter() - start


def source_digest() -> str:
    """SHA-256 of the program's Python sources: the key of its trained zoo."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def trained_zoo(box: Sandbox) -> Path:
    """This checkout's fast zoo: trained on first use (~30 s), kept in the checkout."""
    cached = ZOO_CACHE / f"zoo-{source_digest()[:16]}"
    if not cached.is_dir():
        fresh = box.dir / "zoo-train"
        train_fast_zoo(box, fresh)
        ZOO_CACHE.mkdir(exist_ok=True)
        os.replace(fresh, cached)
    return cached


def cells_cold(box: Sandbox, seed: int, seconds: float, trace: bool) -> Outcome:
    """The same command over a trained fast zoo, with an empty cell store each time.

    Set-up copies the zoo this checkout's program trained on its first
    cells_cold run, then warms imports like catalog_cold.  Training in every
    run would spend ~30 s of the driver's budget per run; that budget buys
    ``CELLS_MIN_REPS`` repetitions instead, which a 5 s repetition on a
    noisy host needs for a steady median.
    """
    golden = load_golden()
    zoo = box.dir / "zoo"
    start = perf_counter()
    shutil.copytree(trained_zoo(box), zoo)
    setup_s = perf_counter() - start + import_probes(box)
    orders = shuffled_passes(seed, CATALOG)

    def run_rep(tag: str, spool: Optional[Path]) -> Rep:
        return cli_rep(box, next(orders), zoo, tag, golden, spool)

    if trace:
        return _traced_cli(box, seconds, run_rep, CELLS_MIN_REPS)
    reps = _measure_reps(box, seconds, run_rep, CELLS_MIN_REPS)
    return _cli_outcome(setup_s, IMPORT_PROBES, reps)


# ------------------------------------------------------------------- service
TERMINAL = ("succeeded", "failed", "cancelled")


@dataclass
class JobSample:
    name: str
    ok: bool
    text: str = ""  #: the fetched result, fingerprinted after the timed loop
    latency_ms: float = 0.0
    submit_ms: float = 0.0
    queue_wait_ms: float = 0.0
    run_ms: float = 0.0
    fetch_ms: float = 0.0


class Client:
    """Blocking HTTP client of the service (one connection per request)."""

    def __init__(self, port: int):
        self.port = port

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def request(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, str]:
        conn = self._connect()
        try:
            payload = json.dumps(body) if body is not None else None
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    def job(self, name: str) -> JobSample:
        """Submit one experiment, follow its events to the end, fetch the result."""
        t0 = perf_counter()
        status, body = self.request("POST", "/jobs", {"experiments": [name], "fast": True})
        t1 = perf_counter()
        if status != 202:
            return JobSample(name, False)
        job_id = json.loads(body)["id"]
        conn = self._connect()
        t_running = t_end = None
        final = None
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            for line in response:
                if not line.strip():
                    continue
                event = json.loads(line)
                if event.get("event") != "status":
                    continue
                if event["status"] == "running" and t_running is None:
                    t_running = perf_counter()
                if event["status"] in TERMINAL:
                    final, t_end = event["status"], perf_counter()
                    break
        finally:
            conn.close()
        t3 = perf_counter()
        status, text = self.request("GET", f"/results/{name}")
        t4 = perf_counter()
        if final != "succeeded" or status != 200 or t_running is None:
            return JobSample(name, False)
        return JobSample(
            name,
            True,
            text=text,
            latency_ms=(t4 - t0) * 1000.0,
            submit_ms=(t1 - t0) * 1000.0,
            queue_wait_ms=(t_running - t1) * 1000.0,
            run_ms=(t_end - t_running) * 1000.0,
            fetch_ms=(t4 - t3) * 1000.0,
        )

    def scrape(self) -> Dict[str, float]:
        """``GET /metrics`` as ``{series: value}``."""
        status, text = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        series = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                series[key] = float(value)
        return series


def closed_loop(
    client: Client, sequences: List[Iterator[str]], seconds: float
) -> Tuple[List[JobSample], float]:
    """One caller per sequence, each sending its next job when the last one ends."""
    samples: List[JobSample] = []
    start = perf_counter()
    deadline = start + seconds

    def caller(sequence: Iterator[str]) -> None:
        while perf_counter() < deadline:
            name = next(sequence)
            try:
                sample = client.job(name)
            except (OSError, ValueError, http.client.HTTPException):
                sample = JobSample(name, False)
            samples.append(sample)
            if not sample.ok:
                time.sleep(0.05)  # a dead server must not become a busy loop

    threads = [threading.Thread(target=caller, args=(seq,), daemon=True) for seq in sequences]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    return samples, perf_counter() - start


@dataclass
class Server:
    proc: subprocess.Popen
    started: float
    port: int


def start_server(
    box: Sandbox, zoo: Path, store: Path, tag: str, spool: Optional[Path] = None
) -> Server:
    cli = [
        "serve", "--port", "0", "--workers", str(JOBS), "--jobs", "1", "--quiet",
        "--cache-dir", str(store), "--results-dir", str(box.dir / f"results-{tag}"),
    ]
    args = [str(SHIM), str(spool), *cli] if spool is not None else ["-m", "repro", *cli]
    log = box.dir / f"{tag}.log"
    proc, started = box.launch(args, zoo, log.name)
    marker = "listening on http://"
    while True:
        text = log.read_text(errors="replace")
        if marker in text:
            address = text.split(marker, 1)[1].split()[0]
            return Server(proc, started, int(address.rsplit(":", 1)[1]))
        if proc.poll() is not None or box.remaining() < 5:
            _kill_group(proc.pid)
            proc.wait()
            raise RuntimeError(f"serve did not come up:\n{text[-2000:]}")
        time.sleep(0.01)


def stop_server(box: Sandbox, server: Server) -> Proc:
    """SIGINT (the service's clean shutdown), then reap; SIGKILL at the deadline."""
    if server.proc.returncode is not None:
        return Proc(server.proc.returncode, 0.0, 0.0)
    try:
        os.kill(server.proc.pid, signal.SIGINT)
    except ProcessLookupError:
        pass
    return box.reap(server.proc, server.started)


def _series_delta(before: Dict[str, float], after: Dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def _serve_and_measure(
    box: Sandbox, zoo: Path, store: Path, tag: str, seed: int, seconds: float,
    golden: Dict[str, str], spool: Optional[Path] = None,
):
    """Start a server, warm it up (untimed), run the timed loop, stop it."""
    server = start_server(box, zoo, store, tag, spool)
    try:
        client = Client(server.port)
        warmup = [client.job(name) for name in SERVICE_EXPERIMENTS]
        before = client.scrape()
        loop_start = perf_counter()
        sequences = client_sequences(seed, SERVICE_EXPERIMENTS, min(JOBS, nproc()))
        samples, loop_wall = closed_loop(client, sequences, seconds)
        loop_end = loop_start + loop_wall
        after = client.scrape()
    finally:
        stopped = stop_server(box, server)
    for sample in warmup + samples:  # checked here so the client stays light while timed
        if sample.ok and fingerprint(sample.text) != golden.get(sample.name):
            sample.ok = False
        sample.text = ""
    deltas = {
        "cells_computed": _series_delta(before, after, 'repro_cells_total{outcome="computed"}'),
        "cells_hit": _series_delta(before, after, 'repro_cells_total{outcome="hit"}'),
        "kernel_fused_calls": _series_delta(
            before, after, 'repro_kernel_events_total{event="fused_calls"}'
        ),
    }
    return warmup, samples, loop_wall, (loop_start, loop_end), stopped, deltas


def service_warm(box: Sandbox, seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed-loop clients against ``serve`` over a store warmed in set-up."""
    golden = load_golden()
    zoo, store = box.dir / "zoo", box.dir / "store"
    start = perf_counter()
    setup_names = list(SERVICE_EXPERIMENTS)
    proc = box.run(
        ["-m", "repro", "run", *setup_names, "--fast", "--jobs", str(JOBS), "--quiet",
         "--cache-dir", str(store), "--results-dir", str(box.dir / "results-setup")],
        zoo,
        "setup.log",
    )
    box.check(proc, "service set-up run", "setup.log")
    warmup, samples, loop_wall, window, stopped, deltas = _serve_and_measure(
        box, zoo, store, "serve", seed, seconds, golden
    )
    # set-up = the store-filling run plus server start and one untimed pass
    setup_s = window[0] - start
    ok = [s for s in samples if s.ok]
    latencies = [s.latency_ms for s in ok] or [loop_wall * 1000.0]
    tail_p, tail_value = tail(latencies)
    jobs_per_s = len(ok) / loop_wall
    attempts = warmup + samples  # warm-up jobs are checked, not timed
    details = {"tail_percentile": tail_p, "server_deltas": deltas, "jobs": len(samples)}
    if not trace:
        metrics = {
            "wall_s": len(SERVICE_EXPERIMENTS) / jobs_per_s if jobs_per_s else loop_wall,
            "setup_s": setup_s,
            "peak_rss_mb": stopped.rss_mb,
            "job_latency_p50_ms": statistics.median(latencies),
            "job_latency_tail_ms": tail_value,
            "jobs_per_s": jobs_per_s,
        }
        samples_n = {
            "wall_s": len(samples), "setup_s": 1, "peak_rss_mb": 1,
            "job_latency_p50_ms": len(latencies), "job_latency_tail_ms": len(latencies),
            "jobs_per_s": len(samples),
        }
        return _service_outcome(metrics, samples_n, attempts, details)

    spool = box.dir / "spool"
    spool.mkdir()
    t_warmup, t_samples, t_wall, t_window, _stopped, t_deltas = _serve_and_measure(
        box, zoo, store, "serve-traced", seed, seconds, golden, spool
    )
    spans, meta = load_spool(spool)
    main_pid = next(pid for pid, m in meta.items() if m.get("main"))
    metrics = layer_metrics(spans, main_pid, t_window, JOBS)
    t_ok = [s for s in t_samples if s.ok]
    metrics["pipeline.cells_computed"] = t_deltas["cells_computed"]
    for name, attr in (
        ("submit_ms", "submit_ms"),
        ("queue_wait_ms", "queue_wait_ms"),
        ("run_ms", "run_ms"),
        ("result_fetch_ms", "fetch_ms"),
    ):
        values = [getattr(s, attr) for s in t_ok]
        metrics[f"service.{name}"] = statistics.median(values) if values else 0.0
    traced_pass = len(SERVICE_EXPERIMENTS) * t_wall / len(t_ok) if t_ok else t_wall
    untraced_pass = len(SERVICE_EXPERIMENTS) / jobs_per_s if jobs_per_s else loop_wall
    metrics["trace.overhead_s"] = traced_pass - untraced_pass
    details.update(
        traced_deltas=t_deltas,
        unattributed_share=metrics["trace.unattributed_s"] / (t_window[1] - t_window[0]),
        spans=len(spans),
    )
    return _service_outcome(metrics, {}, attempts + t_warmup + t_samples, details)


def _service_outcome(metrics, samples_n, attempts: List[JobSample], details: dict) -> Outcome:
    failed = [s.name for s in attempts if not s.ok]
    details["failed_experiments"] = sorted(set(failed))
    return Outcome(metrics, samples_n, len(attempts), len(failed), details)


WORKLOAD_RUNNERS = {
    "catalog_cold": catalog_cold,
    "cells_cold": cells_cold,
    "service_warm": service_warm,
}
