"""Per-layer ledger: span self times, counts and ratios of one traced run.

A span's *self time* is its duration minus the part of that interval covered
by its child spans in the same process.  Children in another process (a pool
worker forked under ``ParallelEngine.execute``) ran concurrently on another
core, so they are linked for attribution but never subtracted.

Every ``*_s`` metric is a sum of self times, except the phase metrics whose
README entry says "inclusive" (``zoo.train_s*``, ``parallel.execute_s``,
``store.lease_wait_s``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from spec import ATTACKS, NN_LAYERS, PER_LAYER
from tracing import ID_SCALE


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    attrs: Optional[dict]

    @property
    def pid(self) -> int:
        return self.id // ID_SCALE

    @property
    def duration(self) -> float:
        return self.end - self.start


def load_spool(spool_dir: Path) -> Tuple[List[Span], Dict[int, dict]]:
    """Every span of a traced run, plus each process's metadata record."""
    spans: List[Span] = []
    meta: Dict[int, dict] = {}
    for path in sorted(Path(spool_dir).glob("spans.*.ndjson")):
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            spans.extend(Span(*fields) for fields in record["spans"])
            if "meta" in record:
                meta[record["pid"]] = record["meta"]
    return spans, meta


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``span id -> self time``: duration minus same-pid children's coverage."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.pid == s.pid:
            children[parent.id].append((max(s.start, parent.start), min(s.end, parent.end)))
    return {
        s.id: max(0.0, s.duration - union_length(children.get(s.id, ()))) for s in spans
    }


def _ancestors(span: Span, by_id: Dict[int, Span]):
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent) if parent.parent is not None else None


def layer_metrics(
    spans: List[Span],
    main_pid: int,
    window: Tuple[float, float],
    jobs: int,
) -> Dict[str, float]:
    """Every per-layer metric the ledger itself can derive from ``spans``.

    ``window`` bounds the measured interval in the main process: spans that
    start outside it (set-up, warm-up requests) are ignored, and
    ``trace.unattributed_s`` is the part of the window no main-process root
    span covers.  Metrics measured elsewhere (``pipeline.cells_computed``,
    ``service.*``, ``trace.overhead_s``) are left to the caller.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    lo, hi = window
    picked = [s for s in spans if lo <= s.start <= hi]
    self_sum: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    for s in picked:
        self_sum[s.name] += own[s.id]
        count[s.name] += 1

    def attr_sum(name: str, key: str, outermost: str = "") -> int:
        total = 0
        for s in picked:
            if s.name != name or not s.attrs:
                continue
            parent = by_id.get(s.parent) if s.parent is not None else None
            if outermost and parent is not None and parent.name.startswith(outermost):
                continue  # a nested call: its counts are already in the parent's delta
            total += s.attrs.get(key, 0)
        return total

    out: Dict[str, float] = {}
    out["startup.import_s"] = sum(
        s.duration for s in spans if s.name == "startup.import" and s.pid == main_pid
    )
    out["pipeline.plan_s"] = self_sum["pipeline.plan"]
    out["pipeline.assemble_s"] = self_sum["pipeline.assemble"]
    out["pipeline.results_write_s"] = self_sum["pipeline.results_write"]

    # zoo training: outermost training spans, inclusive, by nearest zoo entry
    train: Dict[str, float] = defaultdict(float)
    for s in picked:
        if not s.name.startswith("train."):
            continue
        ancestors = list(_ancestors(s, by_id))
        if any(a.name.startswith("train.") for a in ancestors):
            continue
        entry = next((a.attrs["entry"] for a in ancestors if a.name == "zoo.entry"), "")
        train[entry] += s.duration
    out["zoo.train_s"] = sum(train.values())
    for entry in ("lenet_digits", "alexnet_objects", "dq_objects", "substitute_digits"):
        out[f"zoo.train_s.{entry}"] = train[entry]
    out["zoo.load_s"] = self_sum["zoo.entry"] + self_sum["zoo.model_load"]
    out["datasets.generate_s"] = self_sum["datasets.generate"]
    out["datasets.generate_calls"] = count["datasets.generate"]

    steps = count["nn.optim.step"]
    out["nn.train_steps"] = steps
    out["nn.train_step_ms"] = 1000.0 * out["zoo.train_s"] / steps if steps else 0.0
    out["nn.optim.step_s"] = self_sum["nn.optim.step"]
    for label in NN_LAYERS:
        for direction in ("fwd", "bwd"):
            out[f"nn.{label}.{direction}_s"] = self_sum[f"nn.{label}.{direction}"]
    out["nn.im2col_s"] = self_sum["nn.im2col"]
    out["nn.col2im_s"] = self_sum["nn.col2im"]

    kernel_sums = {
        key: attr_sum("kernels.fused", key, "kernels.") + attr_sum("kernels.fallback", key, "kernels.")
        for key in ("fused_calls", "fused_macs", "fallback_macs", "weight_cache_hits", "weight_cache_misses")
    }
    out["kernels.fused_s"] = self_sum["kernels.fused"]
    out["kernels.fused_calls"] = kernel_sums["fused_calls"]
    out["kernels.fused_macs"] = kernel_sums["fused_macs"]
    out["kernels.fused_mmacs_per_s"] = (
        kernel_sums["fused_macs"] / 1e6 / out["kernels.fused_s"] if out["kernels.fused_s"] else 0.0
    )
    out["kernels.fallback_s"] = self_sum["kernels.fallback"]
    out["kernels.fallback_macs"] = kernel_sums["fallback_macs"]
    lookups = kernel_sums["weight_cache_hits"] + kernel_sums["weight_cache_misses"]
    out["kernels.weight_cache_hit_ratio"] = (
        kernel_sums["weight_cache_hits"] / lookups if lookups else 0.0
    )

    out["attacks.generate_s"] = self_sum["attacks.generate"]
    per_attack: Dict[str, float] = defaultdict(float)
    for s in picked:
        if s.name == "attacks.generate":
            per_attack[(s.attrs or {}).get("attack", "")] += own[s.id]
    for attack in ATTACKS:
        out[f"attacks.{attack}.generate_s"] = per_attack[attack]
    for kind in ("query", "gradient"):
        calls = attr_sum("attacks.generate", f"{kind}_calls")
        samples = attr_sum("attacks.generate", f"{kind}_samples")
        out[f"attacks.{kind}_calls"] = calls
        out[f"attacks.mean_{kind}_batch"] = samples / calls if calls else 0.0
    out["classifier.predict_s"] = self_sum["classifier.predict"]
    out["classifier.gradient_s"] = self_sum["classifier.gradient"]
    out["evaluation.select_victims_s"] = self_sum["evaluation.select_victims"]

    out["parallel.warmup_s"] = self_sum["parallel.warm"]
    execute = 0.0
    for s in picked:
        if s.name == "parallel.execute":
            warm = sum(
                c.duration for c in picked if c.parent == s.id and c.name == "parallel.warm"
            )
            execute += s.duration - warm
    out["parallel.execute_s"] = execute
    out["parallel.shards"] = count["parallel.shard"]
    worker_busy = sum(
        s.duration for s in picked if s.name == "parallel.shard" and s.pid != main_pid
    )
    out["parallel.worker_utilization"] = worker_busy / (jobs * execute) if execute else 0.0

    gets = [s for s in picked if s.name == "store.get"]
    out["store.get_calls"] = len(gets)
    out["store.get_s"] = self_sum["store.get"]
    out["store.hit_ratio"] = (
        sum(1 for s in gets if (s.attrs or {}).get("hit")) / len(gets) if gets else 0.0
    )
    out["store.put_calls"] = count["store.put"]
    out["store.put_s"] = self_sum["store.put"]
    out["store.bytes_written"] = attr_sum("store.put", "bytes")
    out["store.lease_wait_s"] = sum(s.duration for s in picked if s.name == "store.wait")

    roots = [
        (max(s.start, lo), min(s.end, hi))
        for s in spans
        if s.pid == main_pid and s.parent is None and s.end > lo and s.start < hi
    ]
    out["trace.unattributed_s"] = max(0.0, (hi - lo) - union_length(roots))
    return out


#: per-layer metrics filled in by the workload runner, not by the ledger
EXTERNAL = (
    "pipeline.cells_computed",
    "service.submit_ms",
    "service.queue_wait_ms",
    "service.run_ms",
    "service.result_fetch_ms",
    "trace.overhead_s",
)


def check_complete(metrics: Dict[str, float]) -> None:
    """Raise if any declared per-layer metric is missing."""
    missing = [m["name"] for m in PER_LAYER if m["name"] not in metrics]
    if missing:
        raise KeyError(f"per-layer metrics missing: {missing}")
