"""Execution strategies for each experiment kind.

Every paper experiment shape is one :class:`KindHandler` registered in the
``"experiment-kind"`` registry.  A handler is a *plan/assemble* pair:

* ``plan(runner, spec)`` enumerates the grid cells the experiment needs as
  :class:`~repro.pipeline.cells.CellRequest` entries -- pure payload
  construction, no model is resolved and nothing is computed;
* ``assemble(runner, spec, cells)`` turns the materialised cell values back
  into ``(headers, rows, metrics)``: the paper-style table plus a JSON-able
  metrics tree that the catalog's paper claims are checked against
  (:func:`repro.pipeline.catalog.check_claims`).

The split is what the :mod:`repro.parallel` engine schedules against: all
experiments' cells are planned up front, deduplicated by content digest
(Figures 8/9 and 10/11 run the same white-box grid and recompute nothing) and
computed in-process or on the worker pool; the actual cell computations live
in :mod:`repro.pipeline.cells`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core.results import format_percentage
from repro.pipeline.cells import CellRequest
from repro.pipeline.runner import EXPERIMENT_KINDS, Runner, variant_labels
from repro.pipeline.spec import ExperimentSpec

Handler = Tuple[List[str], List[List[Any]], Dict[str, Any]]
PlanFn = Callable[[Runner, ExperimentSpec], List[CellRequest]]
AssembleFn = Callable[[Runner, ExperimentSpec, Dict[Any, Any]], Handler]


@dataclass(frozen=True)
class KindHandler:
    """Plan/assemble pair for one experiment kind."""

    plan: PlanFn
    assemble: AssembleFn


def register_kind(name: str, plan: PlanFn, assemble: AssembleFn) -> KindHandler:
    """Register an experiment kind from its plan/assemble pair."""
    handler = KindHandler(plan=plan, assemble=assemble)
    EXPERIMENT_KINDS.register(name, handler, metadata={"planned": True})
    return handler


# ------------------------------------------------------------ attack grids
def _attack_payload(runner: Runner, spec: ExperimentSpec, entry) -> Dict[str, Any]:
    """The payload fields shared by all attack-evaluation cells.

    Deliberately excludes the shard size: since the batched attack engine,
    sharding is pure execution tuning (per-example RNG streams are keyed by
    global victim index), so it is no longer cell content and must not
    invalidate cached artifacts.
    """
    return {
        "model": spec.model,
        "attack": entry.attack,
        "params": runner.attack_params(entry),
        "n_samples": runner.sample_budget(spec),
    }


def plan_transferability(runner: Runner, spec: ExperimentSpec) -> List[CellRequest]:
    """One cell per attack: craft on the source, replay on every target."""
    requests = []
    for entry in spec.attacks:
        payload = _attack_payload(runner, spec, entry)
        payload["source"] = spec.source
        payload["targets"] = list(spec.variants)
        if any(v.startswith("dq_") for v in spec.variants):
            payload["dq_zoo"] = spec.params.get("dq_zoo", "dq_objects")
        requests.append(CellRequest(entry.label, "transferability", payload))
    return requests


def assemble_transferability(
    runner: Runner, spec: ExperimentSpec, cells: Dict[Any, Any]
) -> Handler:
    headers = list(
        spec.params.get("headers") or ["Attack method"] + variant_labels(spec, spec.variants)
    )
    rows = [
        [entry.label] + [format_percentage(cells[entry.label]["targets"][v]) for v in spec.variants]
        for entry in spec.attacks
    ]
    mean_success = {
        v: float(np.mean([cells[e.label]["targets"][v] for e in spec.attacks]))
        for v in spec.variants
    }
    named_cells = {e.label: cells[e.label] for e in spec.attacks}
    return headers, rows, {"attacks": named_cells, "mean_target_success": mean_success}


register_kind("transferability", plan_transferability, assemble_transferability)


def plan_blackbox(runner: Runner, spec: ExperimentSpec) -> List[CellRequest]:
    """One cell per attack x victim: craft on a substitute, replay on the victim."""
    substitute_zoo = spec.params.get("substitute", "substitute_digits")
    requests = []
    for entry in spec.attacks:
        for victim_name in spec.variants:
            payload = _attack_payload(runner, spec, entry)
            payload["victim"] = victim_name
            payload["substitute"] = substitute_zoo
            requests.append(CellRequest((entry.label, victim_name), "blackbox", payload))
    return requests


def assemble_blackbox(runner: Runner, spec: ExperimentSpec, cells: Dict[Any, Any]) -> Handler:
    nested = {
        entry.label: {v: cells[(entry.label, v)] for v in spec.variants}
        for entry in spec.attacks
    }
    headers = list(
        spec.params.get("headers") or ["Attack method"] + variant_labels(spec, spec.variants)
    )
    rows = [
        [entry.label]
        + [format_percentage(nested[entry.label][v]["victim_success_rate"]) for v in spec.variants]
        for entry in spec.attacks
    ]
    mean_success = {
        v: float(np.mean([nested[e.label][v]["victim_success_rate"] for e in spec.attacks]))
        for v in spec.variants
    }
    return headers, rows, {"attacks": nested, "mean_victim_success": mean_success}


register_kind("blackbox", plan_blackbox, assemble_blackbox)


_WHITEBOX_COLUMNS = {
    "success": ("Success", lambda cell: format_percentage(cell["success_rate"])),
    "l2": ("Mean L2", lambda cell: cell["mean_l2"]),
    "mse": ("Mean MSE", lambda cell: cell["mean_mse"]),
    "psnr": ("Mean PSNR (dB)", lambda cell: cell["mean_psnr"]),
}


def plan_whitebox(runner: Runner, spec: ExperimentSpec) -> List[CellRequest]:
    """One cell per attack x victim: attack the victim directly."""
    requests = []
    for entry in spec.attacks:
        for victim_name in spec.variants:
            payload = _attack_payload(runner, spec, entry)
            payload["victim"] = victim_name
            requests.append(CellRequest((entry.label, victim_name), "whitebox", payload))
    return requests


def assemble_whitebox(runner: Runner, spec: ExperimentSpec, cells: Dict[Any, Any]) -> Handler:
    columns = list(spec.params.get("columns", ("success", "l2")))
    nested = {
        entry.label: {v: cells[(entry.label, v)] for v in spec.variants}
        for entry in spec.attacks
    }
    labels = dict(zip(spec.variants, variant_labels(spec, spec.variants)))
    headers = ["Attack", "Victim"] + [_WHITEBOX_COLUMNS[c][0] for c in columns]
    rows = [
        [entry.label, labels[v]]
        + [_WHITEBOX_COLUMNS[c][1](nested[entry.label][v]) for c in columns]
        for entry in spec.attacks
        for v in spec.variants
    ]
    return headers, rows, {"attacks": nested}


register_kind("whitebox", plan_whitebox, assemble_whitebox)


# --------------------------------------------------------------- accuracies
def _accuracy_request(
    spec: ExperimentSpec, key: Any, model_key: str, variant: str, n: int
) -> CellRequest:
    payload: Dict[str, Any] = {"model": model_key, "variant": variant, "n_samples": n}
    if variant.startswith("dq_"):
        payload["dq_zoo"] = spec.params.get("dq_zoo", "dq_objects")
    return CellRequest(key, "accuracy", payload)


def plan_accuracy(runner: Runner, spec: ExperimentSpec) -> List[CellRequest]:
    """Clean accuracy of hardware variants across datasets (Table 6 shape).

    ``spec.params["columns"]``: list of ``{key, label, model, variants,
    n_samples}``; ``spec.params["rows"]``: list of ``{label, variant}``.
    """
    requests = []
    for col in spec.params["columns"]:
        n = col["n_samples"] if not runner.fast else min(col["n_samples"], 50)
        for variant in col["variants"]:
            key = (col.get("key", col["label"]), variant)
            requests.append(_accuracy_request(spec, key, col["model"], variant, n))
    return requests


def assemble_accuracy(runner: Runner, spec: ExperimentSpec, cells: Dict[Any, Any]) -> Handler:
    columns = spec.params["columns"]
    metrics: Dict[str, Dict[str, float]] = {}
    for col in columns:
        col_key = col.get("key", col["label"])
        metrics[col_key] = {
            variant: cells[(col_key, variant)]["accuracy"] for variant in col["variants"]
        }
    headers = ["Used multiplier"] + [col["label"] for col in columns]
    rows = []
    for row_def in spec.params["rows"]:
        row: List[Any] = [row_def["label"]]
        for col in columns:
            acc = metrics[col.get("key", col["label"])].get(row_def["variant"])
            row.append(f"{100 * acc:.1f}%" if acc is not None else "-")
        rows.append(row)
    return headers, rows, {"accuracy": metrics}


register_kind("accuracy", plan_accuracy, assemble_accuracy)


def plan_multiplier_accuracy(runner: Runner, spec: ExperimentSpec) -> List[CellRequest]:
    """Multiplier error metrics next to CNN clean accuracy (Table 8 shape).

    ``spec.params["rows"]``: list of ``{label, variant, profile}`` where
    ``profile`` is a multiplier registry name or ``None`` for the exact row.
    """
    n = spec.n_samples if not runner.fast else min(spec.n_samples, 50)
    profile_samples = spec.params.get("profile_samples", 100_000)
    if runner.fast:
        profile_samples = min(profile_samples, 20_000)
    requests = []
    for row_def in spec.params["rows"]:
        label, variant, mult = row_def["label"], row_def["variant"], row_def.get("profile")
        requests.append(_accuracy_request(spec, ("acc", label), spec.model, variant, n))
        if mult is not None:
            payload = {
                "multiplier": mult,
                "n_samples": profile_samples,
                "operand_range": [-1.0, 1.0],
            }
            requests.append(CellRequest(("profile", label), "noise_profile", payload))
    return requests


def assemble_multiplier_accuracy(
    runner: Runner, spec: ExperimentSpec, cells: Dict[Any, Any]
) -> Handler:
    accuracies: Dict[str, float] = {}
    profiles: Dict[str, Dict[str, Any]] = {}
    rows: List[List[Any]] = []
    for row_def in spec.params["rows"]:
        label = row_def["label"]
        acc = cells[("acc", label)]["accuracy"]
        accuracies[label] = acc
        if row_def.get("profile") is None:
            rows.append([label, f"{100 * acc:.2f}%", 0.0, 0.0])
            continue
        profile = cells[("profile", label)]
        profiles[label] = profile
        rows.append([label, f"{100 * acc:.2f}%", profile["mred"], profile["nmed"]])
    headers = ["Multiplier", "CNN Accuracy", "MRED", "NMED"]
    return headers, rows, {"accuracy": accuracies, "profiles": profiles}


register_kind("multiplier_accuracy", plan_multiplier_accuracy, assemble_multiplier_accuracy)


# ------------------------------------------------------------ noise profiles
def plan_noise_profile(runner: Runner, spec: ExperimentSpec) -> List[CellRequest]:
    """Operand-sampled multiplier noise characterisation (Figures 3/13/15).

    ``spec.params["multipliers"]``: list of ``{label, name, kwargs}``;
    ``spec.params["n_samples"]`` and ``spec.params["operand_range"]`` select
    the sampling protocol.
    """
    n_samples = spec.params.get("n_samples", 100_000)
    if runner.fast:
        n_samples = min(n_samples, 20_000)
    operand_range = list(spec.params.get("operand_range", (-1.0, 1.0)))
    requests = []
    for mult_def in spec.params["multipliers"]:
        payload = {
            "multiplier": mult_def["name"],
            "kwargs": dict(mult_def.get("kwargs", {})),
            "n_samples": n_samples,
            "operand_range": operand_range,
        }
        requests.append(CellRequest(mult_def["label"], "noise_profile", payload))
    return requests


def assemble_noise_profile(runner: Runner, spec: ExperimentSpec, cells: Dict[Any, Any]) -> Handler:
    profiles = {mult_def["label"]: cells[mult_def["label"]] for mult_def in spec.params["multipliers"]}
    if len(profiles) == 1:
        (label, profile), = profiles.items()
        headers = ["quantity", "value"]
        rows = [
            ["samples", profile["n_samples"]],
            ["MRED", profile["mred"]],
            ["NMED", profile["nmed"]],
            ["mean error", profile["mean_error"]],
            ["mean |error|", profile["mean_abs_error"]],
            ["max |error|", profile["max_abs_error"]],
            ["% products inflated", 100.0 * profile["fraction_magnitude_inflated"]],
            ["% positive errors", 100.0 * profile["fraction_positive_error"]],
            ["corr(|x*y|, |error|)", profile["error_magnitude_correlation"]],
        ]
    else:
        headers = ["multiplier", "MRED", "NMED", "% inflated", "% positive", "max |error|"]
        rows = [
            [
                label,
                p["mred"],
                p["nmed"],
                100.0 * p["fraction_magnitude_inflated"],
                100.0 * p["fraction_positive_error"],
                p["max_abs_error"],
            ]
            for label, p in profiles.items()
        ]
    return headers, rows, {"profiles": profiles}


register_kind("noise_profile", plan_noise_profile, assemble_noise_profile)


# ------------------------------------------------------- bespoke experiments
def plan_conv_response(runner: Runner, spec: ExperimentSpec) -> List[CellRequest]:
    """Exact vs approximate convolution response vs input/filter similarity
    (Figure 4)."""
    payload = {
        "multiplier": spec.params.get("multiplier", "axfpm"),
        "kernel_size": spec.params.get("kernel_size", 4),
        "n_points": spec.params.get("n_points", 6),
        "seed": spec.params.get("seed", 0),
    }
    return [CellRequest("cell", "conv_response", payload)]


def assemble_conv_response(runner: Runner, spec: ExperimentSpec, cells: Dict[Any, Any]) -> Handler:
    cell = cells["cell"]
    headers = ["input", "exact conv", "approx conv", "gap"]
    rows = [
        [
            f"image {i} (similarity {p['similarity']:.1f})",
            p["exact"],
            p["approx"],
            p["gap"],
        ]
        for i, p in enumerate(cell["points"], start=1)
    ]
    gaps = [p["gap"] for p in cell["points"]]
    return headers, rows, {"points": cell["points"], "gaps": gaps}


register_kind("conv_response", plan_conv_response, assemble_conv_response)


def plan_confidence(runner: Runner, spec: ExperimentSpec) -> List[CellRequest]:
    """Classification-confidence comparison, exact vs DA (Figure 12)."""
    per_class = spec.params.get("per_class", 10)
    if runner.fast:
        per_class = min(per_class, 4)
    thresholds = list(spec.params.get("thresholds", (0.5, 0.8, 0.9, 0.95)))
    payload = {"model": spec.model, "per_class": per_class, "thresholds": thresholds}
    return [CellRequest("cell", "confidence", payload)]


def assemble_confidence(runner: Runner, spec: ExperimentSpec, cells: Dict[Any, Any]) -> Handler:
    cell = cells["cell"]
    thresholds = list(spec.params.get("thresholds", (0.5, 0.8, 0.9, 0.95)))
    headers = ["quantity", "exact classifier", "approximate classifier"]
    rows: List[List[Any]] = [["mean confidence", cell["exact_mean"], cell["approx_mean"]]]
    for threshold in thresholds:
        exact_frac, approx_frac = cell["fractions"][str(threshold)]
        rows.append([f"fraction above {threshold}", exact_frac, approx_frac])
    return headers, rows, cell


register_kind("confidence", plan_confidence, assemble_confidence)


def plan_feature_maps(runner: Runner, spec: ExperimentSpec) -> List[CellRequest]:
    """Final convolution-layer feature-map statistics per variant (Figure 16)."""
    n_images = spec.params.get("n_images", 16)
    if runner.fast:
        n_images = min(n_images, 4)
    return [
        CellRequest(
            variant,
            "feature_maps",
            {"model": spec.model, "variant": variant, "n_images": n_images},
        )
        for variant in spec.variants
    ]


def assemble_feature_maps(runner: Runner, spec: ExperimentSpec, cells: Dict[Any, Any]) -> Handler:
    labels = dict(zip(spec.variants, variant_labels(spec, spec.variants)))
    stats = {variant: cells[variant] for variant in spec.variants}
    rows = [
        [labels[variant], cells[variant]["mean_active"], cells[variant]["p90"], cells[variant]["max"]]
        for variant in spec.variants
    ]
    headers = ["Multiplier", "Mean active response", "90th percentile", "Max"]
    return headers, rows, {"stats": stats}


register_kind("feature_maps", plan_feature_maps, assemble_feature_maps)


def plan_energy(runner: Runner, spec: ExperimentSpec) -> List[CellRequest]:
    """Analytical energy/delay cost tables (Tables 7 and 9)."""
    return [CellRequest("cell", "energy", {"table": spec.params.get("table", "fpm")})]


def assemble_energy(runner: Runner, spec: ExperimentSpec, cells: Dict[Any, Any]) -> Handler:
    cell = cells["cell"]
    headers = ["Multiplier", "Average energy", "Average delay"]
    rows = [list(row) for row in cell["rows"]]
    by_name = {name: {"energy": energy, "delay": delay} for name, energy, delay in cell["rows"]}
    return headers, rows, {"by_name": by_name}


register_kind("energy", plan_energy, assemble_energy)
