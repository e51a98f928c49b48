"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Driver contract::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end metrics
with ``--trace 0``, the per-layer ledger with ``--trace 1``.  Other modes:

* ``--all``: every workload in turn, one table of every metric by name and
  unit (plus ``error_rate``); ``--out FILE`` appends each run's full record,
  with provenance, as a JSON line.
* ``--compare BASE NEW``: per (workload, end-to-end metric) rows comparing
  two record files -- medians, quartiles, pairs won and a verdict.
* ``--record-golden`` / ``--pin-check``: fingerprint a cold catalog run with
  BLAS pinned (and write ``golden_fast.json``) / unpinned (and compare).
* ``--write-spec``: regenerate ``BENCHMARK.json`` from :mod:`spec`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from golden import fingerprint, load_golden, mismatches, write_golden
from spec import END_TO_END, JOBS, PER_LAYER, ROOT, RUN_SECONDS, UNITS, WORKLOADS, write_benchmark_json
from stats import compare_sets, format_rows
from workloads import (
    BLAS_VARS,
    CATALOG,
    SRC,
    WORKLOAD_RUNNERS,
    Sandbox,
    BLAS_THREADS,
    cli_rep,
    nproc,
)

_VERSIONS_PROBE = """
import json, platform, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    blas = {}
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version")}))
"""


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, pin: bool = True) -> dict:
    """What the numbers were measured on: commit, machine, versions, settings."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    probe = subprocess.run(
        [sys.executable, "-c", _VERSIONS_PROBE], capture_output=True, text=True, env=env
    )
    versions = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": nproc(),
        **versions,
        "jobs": JOBS,
        "blas_threads": BLAS_THREADS if pin else None,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    box = Sandbox(name)
    try:
        outcome = WORKLOAD_RUNNERS[name](box, seed, seconds, trace)
    finally:
        box.cleanup()
    declared = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "trace": int(trace),
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: outcome.metrics[m["name"]] for m in declared},
        "samples": outcome.samples,
        "details": outcome.details,
        "provenance": provenance(seed),
    }


def result_line(record: dict) -> str:
    metrics = {
        name: {"value": value, "unit": UNITS[name]} for name, value in record["metrics"].items()
    }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def format_table(records: List[dict]) -> str:
    lines = [f"{'workload':<13} {'metric':<34} {'value':>14} {'unit':<8} samples"]
    for record in records:
        rows = list(record["metrics"].items())
        if not record["trace"]:
            rate = record["failed"] / record["attempted"]
            rows.append(("error_rate", rate))
        for name, value in rows:
            unit = UNITS.get(name, "ratio")
            samples = record["samples"].get(name, record["attempted"] if name == "error_rate" else "")
            lines.append(f"{record['workload']:<13} {name:<34} {value:>14.6g} {unit:<8} {samples}")
    return "\n".join(lines)


def _append(path: Optional[str], record: dict) -> None:
    if path:
        with open(path, "a") as out:
            out.write(json.dumps(record) + "\n")


def _fingerprint_catalog(pin: bool) -> dict:
    """Fingerprints of one cold catalog run (catalog order)."""
    box = Sandbox("fingerprints", pin=pin)
    try:
        rep = cli_rep(box, list(CATALOG), box.dir / "zoo", "fp", golden={})
        results = box.dir / "results-fp"
        if rep.proc.returncode != 0:
            raise RuntimeError(f"catalog run exited {rep.proc.returncode}")
        return {name: fingerprint((results / f"{name}.json").read_text()) for name in CATALOG}
    finally:
        box.cleanup()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print one table")
    parser.add_argument("--out", help="append each run's full record (JSON line) to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two record files")
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--pin-check", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        print(f"wrote {write_benchmark_json()}")
        return 0
    if args.compare:
        base, new = ([json.loads(l) for l in Path(p).read_text().splitlines() if l.strip()] for p in args.compare)
        print(format_rows(compare_sets(base, new, END_TO_END)))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro (run from a full checkout)", file=sys.stderr)
        return 2
    if args.record_golden:
        write_golden(_fingerprint_catalog(pin=True))
        print("wrote golden fingerprints (BLAS pinned)")
        return 0
    if args.pin_check:
        unpinned = _fingerprint_catalog(pin=False)
        bad = mismatches(unpinned, load_golden())
        unset = ", ".join(f"{v} unset" for v in BLAS_VARS)
        print(f"unpinned BLAS ({unset}): {len(CATALOG) - len(bad)}/{len(CATALOG)} fingerprints match")
        return 1 if bad else 0
    if args.all:
        records = []
        for workload in WORKLOADS:
            record = run_workload(workload["name"], args.seed, args.seconds, bool(args.trace))
            _append(args.out, record)
            records.append(record)
        print(format_table(records))
        return 0 if all(r["correct"] for r in records) else 1
    if not args.workload:
        parser.error("give --workload, --all, --compare, --record-golden, --pin-check or --write-spec")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _append(args.out, record)
    print(format_table([record]))
    print("# provenance " + json.dumps(record["provenance"]))
    print("# details " + json.dumps(record["details"]))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
