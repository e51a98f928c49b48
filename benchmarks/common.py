"""Shared infrastructure for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper by executing the
corresponding declarative spec from :mod:`repro.pipeline.catalog` through the
:class:`~repro.pipeline.runner.Runner`.  Models come from the disk-cached zoo
(so the first run trains them once) and grid cells are cached as JSON
artifacts (so re-runs are fast; set ``REPRO_PIPELINE_NO_CACHE=1`` to force
recomputation after behavioural changes).  Each harness persists the
paper-style text table and a machine-readable JSON result under
``benchmarks/results/`` -- the same schema ``python -m repro run`` writes --
so the performance / robustness trajectory can be tracked across PRs.

All 17 harnesses execute through one shared runner whose worker count comes
from the ``REPRO_JOBS`` environment variable (``auto`` -- every available
core -- by default): uncached grid cells shard across a process pool exactly
as under ``python -m repro run --jobs N``, and results are bit-for-bit
independent of the worker count.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import Optional

from repro.pipeline import ExperimentResult, Runner

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: one shared runner per pytest session; trained models are memoised
#: in-process and uncached cells spread over ``REPRO_JOBS`` workers
RUNNER = Runner(jobs=os.environ.get("REPRO_JOBS", "auto"))


def run_experiment(name: str) -> ExperimentResult:
    """Execute one catalog experiment through the pipeline."""
    return RUNNER.run(name)


def report(experiment: str, text: str) -> str:
    """Print a result block and persist its text table under ``benchmarks/results``."""
    banner = f"\n===== {experiment} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n")
    return banner


def report_result(result: ExperimentResult) -> str:
    """Print a pipeline result and persist ``<name>.txt`` + ``<name>.json``."""
    banner = report(result.name, result.table)
    result.write(RESULTS_DIR)  # overwrites the .txt with identical content + adds .json
    return banner


def provenance() -> dict:
    """The commit (and whether the tree differed from it) and the core count
    a ``BENCH_*.json`` record was measured on."""
    from repro.parallel.sharding import resolve_jobs

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", str(Path(__file__).resolve().parent), *args],
                capture_output=True,
                text=True,
            )
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cpu_count": resolve_jobs("auto"),
    }


# ------------------------------------------------------- regression checking
def load_baseline(path) -> dict:
    """The previously recorded ``BENCH_*.json``, or ``{}`` if absent/corrupt.

    Call this *before* the harness overwrites its output file.
    """
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}


def check_regression(baseline: dict, current: dict, metrics) -> int:
    """Compare higher-is-better metrics against a recorded baseline.

    ``metrics`` is a list of ``(name, getter, min_ratio)``: the check fails
    when ``getter(current) < getter(baseline) * min_ratio``.  Only
    dimensionless ratios (speedups) are ever compared -- absolute wall-clock
    numbers are machine-dependent and meaningless across CI runners, which is
    also why ``min_ratio`` is generous rather than tight.

    A missing baseline (first run on a branch) or a metric absent from it
    (schema drift) is a pass with a note, never a failure: the gate catches
    regressions, it does not block schema evolution.  Returns the number of
    regressions (the harness exit code).
    """
    if not baseline:
        print("# perf check: no baseline recorded yet -- nothing to compare against")
        return 0
    failures = 0
    for name, getter, min_ratio in metrics:
        try:
            base = float(getter(baseline))
        except (KeyError, IndexError, TypeError, ValueError):
            print(f"# perf check: {name}: not in baseline (schema drift?) -- skipped")
            continue
        try:
            cur = float(getter(current))
        except (KeyError, IndexError, TypeError, ValueError):
            print(f"# perf check: {name}: MISSING from current record")
            failures += 1
            continue
        floor = base * min_ratio
        ok = cur >= floor
        verdict = "ok" if ok else "REGRESSION"
        print(
            f"# perf check: {name}: {cur:.3f} vs baseline {base:.3f} "
            f"(floor {floor:.3f} = {min_ratio:g}x) -- {verdict}"
        )
        failures += 0 if ok else 1
    return failures
