"""What the benchmark measures: workloads, end-to-end metrics, per-layer metrics.

This module is the single source of truth behind ``BENCHMARK.json`` (write it
with ``python3 perfbench/run.py --write-spec``); the runner, the ledger and
the comparison mode all read their metric lists from here.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: worker processes of every CLI run and concurrent service clients -- the
#: container this benchmark was defined on has 2 cores
JOBS = 2

#: how long one driver run measures (seconds); see README.md for the budget
RUN_SECONDS = 10

WORKLOADS = [
    {
        "name": "catalog_cold",
        "why": "run all --fast --jobs 2 from an empty zoo and cell store: the headline "
        "cold catalog, where zoo training is ~85% of the work",
    },
    {
        "name": "cells_cold",
        "why": "same command with the fast zoo trained in set-up and an empty cell store: "
        "bypasses training, so attack, approximate-conv and kernel changes show",
    },
    {
        "name": "service_warm",
        "why": "closed loop of 2 clients against serve over a warm store: every cell is a hit, "
        "so job latency is service, planning and store reads",
    },
]

#: ``bound``: share of the parent's median by which the metric may worsen.
#: Timings get 0.24: on the 2-core VM the benchmark was defined on, ten-seed
#: quartile spreads reached 0.10-0.26 as the host drifted 15-30% within
#: minutes; set-up keeps the largest bound, as the contract asks.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "job_latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "job_latency_tail_ms", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
]

ATTACKS = ("fgsm", "pgd", "jsma", "cw", "deepfool", "lsa", "boundary", "hsj")
#: nn layer labels, in the order their metrics are listed
NN_LAYERS = ("conv", "approx_conv", "quant_conv", "approx_dense", "pool", "dense", "bn", "act")


def _layer(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = (
    [
        _layer("startup.import_s", "s"),
        _layer("pipeline.plan_s", "s"),
        _layer("pipeline.assemble_s", "s"),
        _layer("pipeline.results_write_s", "s"),
        _layer("pipeline.cells_computed", "count"),
        _layer("zoo.train_s", "s"),
        _layer("zoo.train_s.lenet_digits", "s"),
        _layer("zoo.train_s.alexnet_objects", "s"),
        _layer("zoo.train_s.dq_objects", "s"),
        _layer("zoo.train_s.substitute_digits", "s"),
        _layer("zoo.load_s", "s"),
        _layer("datasets.generate_s", "s"),
        _layer("datasets.generate_calls", "count"),
        _layer("nn.train_steps", "count"),
        _layer("nn.train_step_ms", "ms"),
        _layer("nn.optim.step_s", "s"),
    ]
    + [
        _layer(f"nn.{label}.{direction}_s", "s")
        for label in NN_LAYERS
        for direction in ("fwd", "bwd")
    ]
    + [
        _layer("nn.im2col_s", "s"),
        _layer("nn.col2im_s", "s"),
        _layer("kernels.fused_s", "s"),
        _layer("kernels.fused_calls", "count"),
        _layer("kernels.fused_macs", "count"),
        _layer("kernels.fused_mmacs_per_s", "MMAC/s", "higher"),
        _layer("kernels.fallback_s", "s"),
        _layer("kernels.fallback_macs", "count"),
        _layer("kernels.weight_cache_hit_ratio", "ratio", "higher"),
        _layer("attacks.generate_s", "s"),
    ]
    + [_layer(f"attacks.{attack}.generate_s", "s") for attack in ATTACKS]
    + [
        _layer("attacks.query_calls", "count"),
        _layer("attacks.mean_query_batch", "samples", "higher"),
        _layer("attacks.gradient_calls", "count"),
        _layer("attacks.mean_gradient_batch", "samples", "higher"),
        _layer("classifier.predict_s", "s"),
        _layer("classifier.gradient_s", "s"),
        _layer("evaluation.select_victims_s", "s"),
        _layer("parallel.warmup_s", "s"),
        _layer("parallel.execute_s", "s"),
        _layer("parallel.shards", "count"),
        _layer("parallel.worker_utilization", "ratio", "higher"),
        _layer("store.get_calls", "count"),
        _layer("store.get_s", "s"),
        _layer("store.hit_ratio", "ratio", "higher"),
        _layer("store.put_calls", "count"),
        _layer("store.put_s", "s"),
        _layer("store.bytes_written", "bytes"),
        _layer("store.lease_wait_s", "s"),
        _layer("service.submit_ms", "ms"),
        _layer("service.queue_wait_ms", "ms"),
        _layer("service.run_ms", "ms"),
        _layer("service.result_fetch_ms", "ms"),
        _layer("trace.unattributed_s", "s"),
        _layer("trace.overhead_s", "s"),
    ]
)

UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document (exactly the keys the contract names)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def write_benchmark_json(path: Path = ROOT / "BENCHMARK.json") -> Path:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
