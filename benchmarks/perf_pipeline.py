"""Pipeline throughput benchmark: serial vs sharded multi-process execution.

Times the whole fast catalog over a warm fast zoo (:data:`WORKLOAD`: 17
experiments, 63 unique grid cells, over a second of serial compute, enough
for a pool's speedup to show) three ways and writes ``BENCH_pipeline.json``
at the repository root -- the seed of the pipeline's performance
trajectory across PRs:

* ``jobs=1``, cold cell cache -- the serial baseline (best of 2 trials);
* ``jobs=auto``, cold cell cache -- the parallel engine (identical results,
  bit for bit; best of 2 trials, so the recorded ``speedup`` compares two
  warmed-up runs instead of charging first-run warm-up to one side);
* ``jobs=auto``, warm cell cache -- every cell a hit, measuring plan +
  artifact-load overhead.

It also prices the machinery a default run carries but never switches on
(:data:`OFF_PATHS`): the disabled ``repro.obs`` span (``REPRO_TRACE``
unset), the disarmed ``repro.faults`` injection check (``REPRO_FAULTS``
unset) and the remote tier's local-only delegation (no ``--remote`` peer).
Each row times one crossing of its disabled path, counts the crossings one
run of the workload makes, and reports their product as a fraction of that
run's wall time; ``--check`` fails if any fraction reaches 2% -- the guard
that keeps each disabled path an attribute read and an ``if``.

Every cell of the workload is warmed once up front -- its zoo models
resolved (trained or disk-loaded), its hardware variants built and their
GEMM kernels primed -- so the timings isolate pipeline execution, not model
training, and the pool's forked workers start from the same state as the
serial run.  Run it directly::

    PYTHONPATH=src python benchmarks/perf_pipeline.py [--jobs N] [--out PATH]

The speedup is hardware-dependent; the JSON records the machine's CPU count
next to the numbers.  On a single-core machine the parallel run measures
pure engine overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import (  # noqa: E402
    add_record_arguments,
    check_regression,
    provenance,
    record_paths,
    write_record,
)
from repro.parallel.plan import build_plan  # noqa: E402
from repro.parallel.sharding import resolve_jobs  # noqa: E402
from repro.pipeline import (  # noqa: E402
    NONDETERMINISTIC_RESULT_FIELDS,
    Runner,
    get_cell_kind,
    get_experiment,
    list_experiments,
)

#: the experiments every run times: the whole catalog, in catalog order
WORKLOAD = list_experiments()

#: higher-is-better ratios compared by ``--check``; wall-clock absolutes are
#: machine-dependent and never gated.  The warm-cache ratio (cold serial wall
#: over warm rerun wall) is the one guarding the artifact store's read path:
#: a lock added to the hot path would collapse it immediately.
CHECK_METRICS = [
    ("parallel_speedup", lambda r: r["speedup"], 0.5),
    (
        "warm_cache_speedup",
        lambda r: r["runs"][0]["wall_seconds"] / max(r["runs"][2]["wall_seconds"], 1e-9),
        0.05,
    ),
]

#: absolute ceiling on every estimated off-path overhead fraction; unlike
#: the ratios above this is not baseline-relative -- 2% is the budget, full
#: stop (the measured estimates are typically under 0.1%)
MAX_OFF_OVERHEAD = 0.02

#: timed crossings per price; enough to resolve tens of nanoseconds
PRICE_ITERATIONS = 200_000


def _timed_run(jobs: int, cache_dir: Path, label: str, trials: int = 1) -> dict:
    """Run the workload ``trials`` times on a cold cache; report the best.

    Each cold trial gets a fresh cache directory, so none of them benefits
    from the previous trial's artifacts; best-of-N keeps one-off warm-up
    effects (allocator growth, first-touch page faults) out of the recorded
    ``speedup``.
    """
    best = None
    for trial in range(max(1, trials)):
        runner = Runner(fast=True, cache_dir=cache_dir / f"trial{trial}", jobs=jobs)
        start = time.perf_counter()
        results = runner.run_many(WORKLOAD)
        wall = time.perf_counter() - start
        payloads = []
        for result in results:
            payload = result.to_json()
            for field in NONDETERMINISTIC_RESULT_FIELDS:
                payload.pop(field, None)
            # compare canonical JSON text, not dicts: NaN != NaN would falsely
            # flag zero-success white-box cells as nondeterministic
            payloads.append(json.dumps(payload, sort_keys=True))
        record = {
            "label": label,
            "jobs": runner.jobs,
            "wall_seconds": round(wall, 3),
            "trials": max(1, trials),
            "cells_total": runner.telemetry.cells_total,
            "cache_hits": runner.telemetry.cache_hits,
            "cache_misses": runner.telemetry.cache_misses,
            "compute_seconds": round(runner.telemetry.compute_seconds, 3),
            "_deterministic_payload": payloads,
        }
        if best is None or record["wall_seconds"] < best["wall_seconds"]:
            best = record
    return best


def _warm_run(jobs: int, cache_dir: Path, label: str) -> dict:
    """Re-run the workload against an already-populated cache directory."""
    runner = Runner(fast=True, cache_dir=cache_dir, jobs=jobs)
    start = time.perf_counter()
    runner.run_many(WORKLOAD)
    return {
        "label": label,
        "jobs": runner.jobs,
        "wall_seconds": round(time.perf_counter() - start, 3),
        "cells_total": runner.telemetry.cells_total,
        "cache_hits": runner.telemetry.cache_hits,
        "cache_misses": runner.telemetry.cache_misses,
        "compute_seconds": round(runner.telemetry.compute_seconds, 3),
    }


def _price(fn, iterations: int = PRICE_ITERATIONS) -> float:
    """Seconds per call of ``fn``, averaged over ``iterations`` calls."""
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


def _disabled_span_seconds() -> float:
    from repro.obs import TRACER

    TRACER.configure(enabled=False)

    def crossing():
        with TRACER.span("bench", cat="bench"):
            pass

    return _price(crossing)


def _spans_per_run(tmp: Path, runs: dict):
    """Spans one traced serial cold run emits, against the untraced serial wall."""
    from repro.obs import TRACER

    TRACER.configure(enabled=True, directory=tmp / "trace-spool")
    try:
        runner = Runner(fast=True, cache_dir=tmp / "traced", jobs=1)
        runner.run_many(WORKLOAD)
        spans = (runner.telemetry.trace or {}).get("spans", 0)
    finally:
        TRACER.configure(enabled=False)
    return spans, runs["serial"]


def _disarmed_check_seconds() -> float:
    from repro.faults import FAULTS

    FAULTS.configure(None)
    return _price(lambda: FAULTS.should_inject("worker.crash", "bench"))


def _fault_sites_per_run(tmp: Path, runs: dict):
    """Injection sites one serial cold run crosses, against the serial wall.

    Every catalog point is armed at probability zero -- enabled enough to
    count ``checks``, certain never to fire.
    """
    from repro.faults import FAULT_POINTS, FAULT_STATS, FAULTS

    FAULTS.configure(",".join(f"{point}:0" for point in sorted(FAULT_POINTS)))
    mark = FAULT_STATS.snapshot()
    try:
        runner = Runner(fast=True, cache_dir=tmp / "faults-armed", jobs=1)
        runner.run_many(WORKLOAD)
        checks = FAULT_STATS.delta(mark).get("checks", 0)
    finally:
        FAULTS.configure(None)
    return checks, runs["serial"]


class _StubStore:
    """A local tier whose hit costs one method call and nothing else, so what
    a remote-less :class:`TieredStore` read adds over it is the delegation
    alone, not file-system noise."""

    def get(self, namespace, digest):
        return namespace


def _remote_delegation_seconds() -> float:
    """Per-read price of routing a hit through a remote-less ``TieredStore``.

    A runner without ``--remote`` uses the plain local store, so this prices
    the worst plausible wiring instead: every read delegated.
    """
    from repro.store import TieredStore

    stub = _StubStore()
    tiered = TieredStore(stub, remote=None)
    return max(0.0, _price(lambda: tiered.get("bench", "d")) - _price(lambda: stub.get("bench", "d")))


def _store_reads_per_run(tmp: Path, runs: dict):
    """Store reads one warm serial run issues, against that run's wall."""
    from repro.store import STORE_STATS

    mark = STORE_STATS.snapshot()
    runner = Runner(fast=True, cache_dir=tmp / "serial" / "trial1", jobs=1)
    start = time.perf_counter()
    runner.run_many(WORKLOAD)
    wall = time.perf_counter() - start
    return STORE_STATS.delta(mark).get("reads", 0), wall


#: the disabled paths a default run carries: ``(record key, seconds per
#: crossing, (tmp, run walls) -> (crossings per run, that run's wall))``
OFF_PATHS = (
    ("tracing", _disabled_span_seconds, _spans_per_run),
    ("faults", _disarmed_check_seconds, _fault_sites_per_run),
    ("remote", _remote_delegation_seconds, _store_reads_per_run),
)


def _off_overheads(tmp: Path, runs: dict) -> dict:
    """Each :data:`OFF_PATHS` row priced against the run that crosses it."""
    record = {}
    for key, price, crossings in OFF_PATHS:
        seconds = price()
        count, wall = crossings(tmp, runs)
        record[key] = {
            "ns_per_crossing": round(seconds * 1e9, 1),
            "crossings_per_run": count,
            "run_wall_seconds": round(wall, 4),
            "estimated_off_overhead": round(count * seconds / max(wall, 1e-9), 6),
            "max_off_overhead": MAX_OFF_OVERHEAD,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", default="auto", help="parallel worker count (default: auto)")
    add_record_arguments(parser, "pipeline")
    args = parser.parse_args(argv)
    jobs = resolve_jobs(args.jobs)
    out_path, baseline = record_paths(args, "pipeline")

    # warm every cell of the workload (zoo models, hardware variants, GEMM
    # kernels) outside the timed region, so every timed run -- serial and
    # parallel alike -- starts from the same process state and the
    # comparison isolates pipeline execution
    warm = Runner(fast=True)
    plan = build_plan(warm, [get_experiment(name) for name in WORKLOAD])
    for task in plan.tasks.values():
        get_cell_kind(task.kind).warm(warm, task.payload)

    with tempfile.TemporaryDirectory(prefix="repro-perf-") as tmp:
        tmp = Path(tmp)
        # trial labels are distinct even when --jobs resolves to 1 on a
        # single-core machine (the serial baseline vs the pool run used to
        # both read "jobs=1, cold cache"), and each side is best-of-N so the
        # recorded speedup is not first-run warm-up noise
        serial = _timed_run(1, tmp / "serial", "serial baseline (jobs=1), cold cache", trials=2)
        parallel = _timed_run(
            jobs, tmp / "parallel", f"pool run (jobs={jobs}), cold cache", trials=2
        )
        warm_cache = _warm_run(
            jobs, tmp / "parallel" / "trial1", f"pool rerun (jobs={jobs}), warm cache"
        )
        off = _off_overheads(tmp, {"serial": serial["wall_seconds"]})

    identical = serial.pop("_deterministic_payload") == parallel.pop("_deterministic_payload")
    record = {
        "benchmark": "pipeline_parallel_execution",
        **provenance(),
        "workload": WORKLOAD,
        "fast_profile": True,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "runs": [serial, parallel, warm_cache],
        "speedup": round(serial["wall_seconds"] / max(parallel["wall_seconds"], 1e-9), 3),
        "results_identical_across_jobs": identical,
        **off,
    }
    write_record(out_path, record)
    if not identical:
        print("ERROR: parallel results diverged from serial", file=sys.stderr)
        return 1
    over = [key for key, _, _ in OFF_PATHS if off[key]["estimated_off_overhead"] >= MAX_OFF_OVERHEAD]
    if args.check and over:
        for key in over:
            print(
                f"ERROR: {key}-off overhead estimate {off[key]['estimated_off_overhead']:.4f} "
                f"exceeds the {MAX_OFF_OVERHEAD:.0%} budget",
                file=sys.stderr,
            )
        return 1
    if args.check and check_regression(baseline, record, CHECK_METRICS):
        print("ERROR: performance regressed against the recorded baseline", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
