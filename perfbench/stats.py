"""Summaries of timing samples and the A/A (or parent/change) comparison rules.

The rules follow the choosing-metrics method: a timing is reported as its
median and the highest percentile with at least ten samples beyond it; a
change is *better* only when it wins at least nine tenths of the run pairs
and the medians differ by more than the baseline's quartile spread; it is
*worse* when its median is worse than the baseline's by more than the
metric's bound; a metric whose baseline spread exceeds its bound is
*unresolved* unless every changed run reads better than every baseline run.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: percentiles tried, highest first, for a timing's tail
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(p, value)``: the highest ladder percentile with >= 10 samples beyond it.

    With too few samples for any rung the maximum is reported as ``p = 100``.
    """
    for p in TAIL_LADDER:
        value = percentile(values, p)
        if sum(1 for v in values if v > value) >= TAIL_MIN_BEYOND:
            return p, value
    return 100.0, max(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def compare(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """One comparison row: medians, quartiles, pairs won and a verdict.

    Runs are paired in order (``base[i]`` with ``new[i]``); a tie counts for
    neither side.
    """
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if sign * (b - n) > 0)
    lost = sum(1 for b, n in pairs if sign * (n - b) > 0)
    worse_by = sign * (nmed - bmed) / bmed if bmed else 0.0
    base_spread = (bq3 - bq1) / bmed if bmed else 0.0
    all_better = all(sign * (b - n) > 0 for b in base for n in new)
    if pairs and won >= 0.9 * len(pairs) and abs(nmed - bmed) > (bq3 - bq1) and worse_by < 0:
        verdict = "better"
    elif base_spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "unchanged"
    return {
        "base": (bq1, bmed, bq3),
        "new": (nq1, nmed, nq3),
        "pairs": len(pairs),
        "won": won,
        "lost": lost,
        "worse_by": worse_by,
        "base_spread": base_spread,
        "verdict": verdict,
    }


def compare_sets(
    base: List[dict], new: List[dict], end_to_end: List[dict]
) -> List[Dict[str, object]]:
    """Rows per (workload, end-to-end metric) for two lists of run records."""
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for workload in workloads:
        b_runs = [r for r in base if r["workload"] == workload and "wall_s" in r["metrics"]]
        n_runs = [r for r in new if r["workload"] == workload and "wall_s" in r["metrics"]]
        if not b_runs or not n_runs:
            continue
        for metric in end_to_end:
            name = metric["name"]
            row = compare(
                [r["metrics"][name] for r in b_runs],
                [r["metrics"][name] for r in n_runs],
                metric["better"],
                metric["bound"],
            )
            row.update(workload=workload, metric=name, bound=metric["bound"])
            rows.append(row)
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    header = (
        f"{'workload':<13} {'metric':<20} {'base q1/med/q3':<28} {'new q1/med/q3':<28} "
        f"{'won':>7} {'worse_by':>9} {'bound':>6}  verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        base = "/".join(f"{v:.4g}" for v in row["base"])
        new = "/".join(f"{v:.4g}" for v in row["new"])
        lines.append(
            f"{row['workload']:<13} {row['metric']:<20} {base:<28} {new:<28} "
            f"{row['won']:>3}/{row['pairs']:<3} {row['worse_by']:>+9.3f} {row['bound']:>6}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)
