"""Shared helpers of the ``perf_*.py`` performance harnesses.

Each harness records one ``BENCH_*.json`` file.  :func:`provenance` stamps
the record with the commit and core count it was measured on, and
:func:`check_regression` gates a fresh record's speedup ratios against the
committed one (``--check``).  A check never writes the committed file
(:func:`record_paths`): its fresh record goes under ``results/``, so a
failed check cannot become the next check's baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path
from typing import Optional, Tuple

#: the repository whose committed ``BENCH_*.json`` files hold the baselines
REPO_ROOT = Path(__file__).resolve().parent.parent


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
def add_record_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """The ``--out`` and ``--check`` options of the harness recording ``BENCH_<name>.json``."""
    parser.add_argument(
        "--out",
        help=f"where to write the record (default: BENCH_{name}.json at the repository "
        f"root, or results/BENCH_{name}.json with --check)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"compare the speedup ratios against the committed BENCH_{name}.json, "
        "which a check never writes, and exit non-zero on regression",
    )


def record_paths(args: argparse.Namespace, name: str) -> Tuple[Path, dict]:
    """Where this run writes its record, and the baseline ``--check`` compares it with.

    Without ``--check`` the run records ``BENCH_<name>.json`` (or ``--out``)
    and compares with nothing.  With it, the baseline is the committed file,
    read before anything runs, and the fresh record goes to ``--out`` or
    ``results/BENCH_<name>.json``, never to the committed file.
    """
    committed = REPO_ROOT / f"BENCH_{name}.json"
    if not args.check:
        return Path(args.out or committed), {}
    out = Path(args.out or REPO_ROOT / "results" / committed.name)
    if out.resolve() == committed.resolve():
        raise SystemExit(
            f"error: --check compares against {committed}; write the fresh record elsewhere"
        )
    return out, load_baseline(committed)


def write_record(path: Path, record: dict) -> None:
    """Write (and print) one harness record."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\n# wrote {path}")


def load_baseline(path) -> dict:
    """The recorded ``BENCH_*.json`` at ``path``, or ``{}`` if absent/corrupt."""
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
