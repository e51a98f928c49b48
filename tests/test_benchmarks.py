"""The perf harnesses' ``--check`` compares with the committed record and never writes it.

A check that wrote its fresh record over the baseline it compared against
would make one failed local run the next run's baseline.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture()
def harness(tmp_path):
    """A copy of the kernel harness next to a committed record whose speedups no run reaches."""
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in ("common.py", "perf_kernels.py"):
        shutil.copy(REPO / "benchmarks" / name, bench / name)
    record = json.loads((REPO / "BENCH_kernels.json").read_text())
    for multiplier in record["multipliers"].values():
        for key in ("conv_speedup_geomean", "dense_speedup_geomean"):
            multiplier[key] *= 1000
    (tmp_path / "BENCH_kernels.json").write_text(json.dumps(record, indent=2) + "\n")
    return tmp_path


def run_check(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "perf_kernels.py"), "--check", *args],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_a_failing_check_leaves_the_baseline_byte_identical(harness):
    baseline = harness / "BENCH_kernels.json"
    before = baseline.read_bytes()
    done = run_check(harness, "--repeats", "1")
    assert done.returncode == 1, done.stdout[-2000:] + done.stderr[-2000:]
    assert "REGRESSION" in done.stdout
    assert baseline.read_bytes() == before
    fresh = json.loads((harness / "results" / "BENCH_kernels.json").read_text())
    assert fresh["benchmark"] == json.loads(before)["benchmark"]


def test_a_check_refuses_to_write_its_own_baseline(harness):
    baseline = harness / "BENCH_kernels.json"
    before = baseline.read_bytes()
    done = run_check(harness, "--out", str(baseline))
    assert done.returncode != 0 and "write the fresh record elsewhere" in done.stderr
    assert baseline.read_bytes() == before
