"""Shared helpers of the ``perf_*.py`` performance harnesses.

Each harness records one ``BENCH_*.json`` file.  :func:`provenance` stamps
the record with the commit and core count it was measured on, and
:func:`load_baseline` plus :func:`check_regression` gate a fresh record's
speedup ratios against the committed one (``--check``).
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Optional


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
