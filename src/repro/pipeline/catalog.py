"""The experiment catalog: one declarative spec per paper table / figure.

Importing this module populates the ``"experiment"`` registry.  Every spec
mirrors the protocol of the paper's experiment and is registered together
with the paper's qualitative claims about its result: one :class:`Claim`
per statement the reproduction must uphold (DA blunts transfer, costs a
white-box attacker more noise, keeps clean accuracy; Ax-FPM inflates
products, ...).  The claims live in the registry entry's metadata, never
on the spec, so they change no ``spec.to_dict()``, cell digest or result
file.  :func:`check_claims` evaluates them against a result's metrics:
``python -m repro run`` prints the verdicts in its summary, and CI checks
the written ``results/*.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.pipeline.runner import EXPERIMENTS
from repro.pipeline.spec import AttackGridEntry, ExperimentSpec

#: how many correctly-classified test samples each attack gets to work with.
#: The paper uses larger pools; this keeps a full run in minutes on a laptop
#: while leaving the result *shapes* intact.
N_ATTACK_SAMPLES_DIGITS = 20
N_ATTACK_SAMPLES_OBJECTS = 10
N_WHITEBOX_SAMPLES = 6

#: attack parameterisation for the digit (LeNet) experiments
DIGIT_ATTACKS: Tuple[AttackGridEntry, ...] = (
    AttackGridEntry("FGSM", "fgsm", {"epsilon": 0.1}),
    AttackGridEntry("PGD", "pgd", {"epsilon": 0.1, "steps": 15}),
    AttackGridEntry("JSMA", "jsma", {"theta": 0.8, "gamma": 0.08}),
    AttackGridEntry("C&W", "cw", {"max_iterations": 80}),
    AttackGridEntry("DF", "deepfool", {"max_iterations": 30}),
    AttackGridEntry("LSA", "lsa", {"max_rounds": 12}),
    AttackGridEntry("BA", "boundary", {"max_iterations": 80, "init_trials": 30}),
    AttackGridEntry("HSJ", "hsj", {"max_iterations": 5, "num_eval_samples": 16}),
)

#: attack parameterisation for the object (AlexNet) experiments
OBJECT_ATTACKS: Tuple[AttackGridEntry, ...] = (
    AttackGridEntry("FGSM", "fgsm", {"epsilon": 0.05}),
    AttackGridEntry("PGD", "pgd", {"epsilon": 0.05, "steps": 12}),
    AttackGridEntry("JSMA", "jsma", {"theta": 0.6, "gamma": 0.03}),
    AttackGridEntry("C&W", "cw", {"max_iterations": 60}),
    AttackGridEntry("DF", "deepfool", {"max_iterations": 25}),
    AttackGridEntry("LSA", "lsa", {"max_rounds": 10}),
    AttackGridEntry("BA", "boundary", {"max_iterations": 60, "init_trials": 30}),
    AttackGridEntry("HSJ", "hsj", {"max_iterations": 4, "num_eval_samples": 12}),
)


def _entries(grid: Tuple[AttackGridEntry, ...], *labels: str) -> Tuple[AttackGridEntry, ...]:
    by_label = {entry.label: entry for entry in grid}
    return tuple(by_label[label] for label in labels)


# ------------------------------------------------------------------ claims
@dataclass(frozen=True)
class Claim:
    """One qualitative claim of the paper about an experiment's result.

    ``holds`` is a predicate over ``result.metrics`` -- in process, or as
    read back from ``results/<name>.json``.  ``profiles`` names the run
    profiles (``"fast"``, ``"full"``) the claim is checked in: the fast
    profile's tiny models cannot carry every claim.
    """

    text: str
    holds: Callable[[Mapping[str, Any]], bool]
    profiles: Tuple[str, ...] = ("fast", "full")


@dataclass(frozen=True)
class ClaimVerdict:
    """One claim checked against one result.

    ``error`` carries the predicate's exception when it raised instead of
    answering; such a claim counts as violated.
    """

    text: str
    held: bool
    error: Optional[str] = None


#: the claims the fast profile's tiny models cannot carry
FULL_ONLY = ("full",)


def register_experiment(spec: ExperimentSpec, claims: Sequence[Claim] = ()) -> ExperimentSpec:
    """Add a spec and the paper claims about its result to the catalog."""
    EXPERIMENTS.register(
        spec.name,
        lambda spec=spec: spec,
        metadata={"title": spec.title, "kind": spec.kind, "claims": tuple(claims)},
    )
    return spec


def check_claims(name: str, fast: bool, metrics: Mapping[str, Any]) -> List[ClaimVerdict]:
    """The verdicts of ``name``'s claims in the run's profile on ``metrics``.

    An experiment outside the catalog has no claims.  A predicate that
    raises (a missing metric, a renamed key) is a violation carrying the
    exception text, so a broken claim neither passes nor aborts the run.
    """
    if name not in EXPERIMENTS:
        return []
    profile = "fast" if fast else "full"
    verdicts = []
    for claim in EXPERIMENTS.metadata(name).get("claims", ()):
        if profile not in claim.profiles:
            continue
        try:
            verdicts.append(ClaimVerdict(claim.text, bool(claim.holds(metrics))))
        except Exception as exc:
            verdicts.append(ClaimVerdict(claim.text, False, f"{type(exc).__name__}: {exc}"))
    return verdicts


def _exact_target_always_fooled(metrics: Mapping[str, Any]) -> bool:
    """Examples that fool the exact source fool the identical exact target."""
    return all(cell["targets"]["exact"] == 1.0 for cell in metrics["attacks"].values())


def _where_both_fooled(attacks: Sequence[str], test: Callable[[Any, Any], bool]):
    """A predicate: ``test(exact, da)`` for every attack that fools both victims."""

    def holds(metrics: Mapping[str, Any]) -> bool:
        cells = [metrics["attacks"][name] for name in attacks]
        return all(
            test(cell["exact"], cell["da"])
            for cell in cells
            if cell["exact"]["success_rate"] > 0 and cell["da"]["success_rate"] > 0
        )

    return holds


#: a cheap multi-cell workload for pipeline performance measurements: 12
#: unique, independent grid cells under ``--fast`` (4 white-box + 6
#: transferability + 2 noise profiles), nothing heavier than the fast digit
#: model, and the two white-box experiments share their whole grid --
#: exercising exactly the sharding, dedup and caching paths
#: ``benchmarks/perf_pipeline.py`` times.
FAST_PERF_SUBSET = (
    "fig08_09_whitebox_l2",
    "fig10_11_whitebox_psnr_mse",
    "fig13_bfloat16_noise",
    "table10_heap_transferability",
)


# ------------------------------------------------------------ figures 3-4
register_experiment(
    ExperimentSpec(
        name="fig03_axfpm_noise",
        kind="noise_profile",
        title="Fig. 3: Ax-FPM noise profile over operands in [-1, 1]",
        params={
            "multipliers": [{"label": "Ax-FPM", "name": "axfpm"}],
            "n_samples": 200_000,
            "operand_range": (-1.0, 1.0),
        },
    ),
    claims=(
        Claim(
            "Ax-FPM inflates the product magnitude in over 90% of cases",
            lambda m: m["profiles"]["Ax-FPM"]["fraction_magnitude_inflated"] > 0.9,
        ),
        Claim(
            "Ax-FPM's error grows with the operand magnitude (correlation > 0.3)",
            lambda m: m["profiles"]["Ax-FPM"]["error_magnitude_correlation"] > 0.3,
        ),
        Claim(
            "Ax-FPM's MRED lies between 0.2 and 0.6",
            lambda m: 0.2 < m["profiles"]["Ax-FPM"]["mred"] < 0.6,
        ),
    ),
)
register_experiment(
    ExperimentSpec(
        name="fig04_approx_convolution",
        kind="conv_response",
        title="Fig. 4: exact vs approximate convolution response vs similarity",
        params={"multiplier": "axfpm", "kernel_size": 4, "n_points": 6, "seed": 0},
    ),
    claims=(
        Claim(
            "the approximate convolution never lowers a response (every gap >= 0)",
            lambda m: all(gap >= 0 for gap in m["gaps"]),
        ),
        Claim(
            "the inflation grows with input/filter similarity (last gap > first)",
            lambda m: m["gaps"][-1] > m["gaps"][0],
        ),
    ),
)
# ----------------------------------------------------------- white box
register_experiment(
    ExperimentSpec(
        name="fig08_09_whitebox_l2",
        kind="whitebox",
        title="Figs. 8-9: white-box DeepFool / C&W L2 budget, exact vs DA LeNet",
        model="lenet_digits",
        dataset="digits",
        variants=("exact", "da"),
        attacks=(
            AttackGridEntry("DeepFool (Fig. 8)", "deepfool", {"max_iterations": 30}),
            AttackGridEntry("C&W (Fig. 9)", "cw", {"max_iterations": 80}),
        ),
        n_samples=N_WHITEBOX_SAMPLES,
        params={"columns": ("success", "l2"), "variant_labels": {"da": "approximate"}},
    ),
    claims=(
        Claim(
            "fooling DA takes at least 0.7x the exact LeNet's mean L2 "
            "(DeepFool and C&W, where both are fooled)",
            _where_both_fooled(
                ("DeepFool (Fig. 8)", "C&W (Fig. 9)"),
                lambda exact, da: da["mean_l2"] >= 0.7 * exact["mean_l2"],
            ),
        ),
    ),
)
register_experiment(
    ExperimentSpec(
        name="fig10_11_whitebox_psnr_mse",
        kind="whitebox",
        title="Figs. 10-11: white-box adversarial MSE / PSNR, exact vs DA LeNet",
        model="lenet_digits",
        dataset="digits",
        variants=("exact", "da"),
        attacks=(
            AttackGridEntry("DeepFool (Fig. 10)", "deepfool", {"max_iterations": 30}),
            AttackGridEntry("C&W (Fig. 11)", "cw", {"max_iterations": 80}),
        ),
        n_samples=N_WHITEBOX_SAMPLES,
        params={"columns": ("mse", "psnr"), "variant_labels": {"da": "approximate"}},
    ),
    claims=(
        Claim(
            "adversarial examples against DA have at least 0.5x the exact LeNet's "
            "mean MSE (DeepFool and C&W, where both are fooled)",
            _where_both_fooled(
                ("DeepFool (Fig. 10)", "C&W (Fig. 11)"),
                lambda exact, da: da["mean_mse"] >= 0.5 * exact["mean_mse"],
            ),
        ),
        Claim(
            "adversarial examples against DA have at most 3 dB more PSNR than "
            "against the exact LeNet (DeepFool and C&W, where both are fooled)",
            _where_both_fooled(
                ("DeepFool (Fig. 10)", "C&W (Fig. 11)"),
                lambda exact, da: da["mean_psnr"] <= exact["mean_psnr"] + 3.0,
            ),
        ),
    ),
)
# -------------------------------------------------------- figures 12-16
register_experiment(
    ExperimentSpec(
        name="fig12_confidence_cdf",
        kind="confidence",
        title="Fig. 12: classification-confidence distribution, exact vs DA",
        model="lenet_digits",
        dataset="digits",
        params={"per_class": 10, "thresholds": (0.5, 0.8, 0.9, 0.95)},
    ),
    claims=(
        Claim(
            "DA's mean confidence is at most 0.05 below the exact LeNet's",
            lambda m: m["approx_mean"] >= m["exact_mean"] - 0.05,
        ),
        Claim(
            "DA's share of samples above 0.8 confidence is at most 0.1 below "
            "the exact LeNet's",
            lambda m: m["fractions"]["0.8"][1] >= m["fractions"]["0.8"][0] - 0.1,
        ),
    ),
)
register_experiment(
    ExperimentSpec(
        name="fig13_bfloat16_noise",
        kind="noise_profile",
        title="Fig. 13: bfloat16 vs Ax-FPM noise over operands in [0, 1]",
        params={
            "multipliers": [
                {"label": "Bfloat16", "name": "bfloat16"},
                {"label": "Ax-FPM", "name": "axfpm"},
            ],
            "n_samples": 200_000,
            "operand_range": (0.0, 1.0),
        },
    ),
    claims=(
        Claim(
            "bfloat16's MRED is below 0.02",
            lambda m: m["profiles"]["Bfloat16"]["mred"] < 0.02,
        ),
        Claim(
            "bfloat16's noise is mostly negative (under 10% positive errors)",
            lambda m: m["profiles"]["Bfloat16"]["fraction_positive_error"] < 0.1,
        ),
        Claim(
            "Ax-FPM's max |error| is over 10x bfloat16's",
            lambda m: m["profiles"]["Ax-FPM"]["max_abs_error"]
            > 10 * m["profiles"]["Bfloat16"]["max_abs_error"],
        ),
    ),
)
register_experiment(
    ExperimentSpec(
        name="fig15_heap_noise",
        kind="noise_profile",
        title="Fig. 15: Ax-FPM vs HEAP noise over operands in [0, 1]",
        params={
            "multipliers": [
                {"label": "Ax-FPM", "name": "axfpm"},
                {"label": "HEAP", "name": "heap"},
            ],
            "n_samples": 150_000,
            "operand_range": (0.0, 1.0),
        },
    ),
    claims=(
        Claim(
            "HEAP's MRED is below Ax-FPM's",
            lambda m: m["profiles"]["HEAP"]["mred"] < m["profiles"]["Ax-FPM"]["mred"],
        ),
        Claim(
            "HEAP inflates a smaller share of products than Ax-FPM",
            lambda m: m["profiles"]["HEAP"]["fraction_magnitude_inflated"]
            < m["profiles"]["Ax-FPM"]["fraction_magnitude_inflated"],
        ),
        Claim(
            "HEAP's max |error| is below Ax-FPM's",
            lambda m: m["profiles"]["HEAP"]["max_abs_error"]
            < m["profiles"]["Ax-FPM"]["max_abs_error"],
        ),
    ),
)
register_experiment(
    ExperimentSpec(
        name="fig16_heatmaps",
        kind="feature_maps",
        title="Fig. 16: last-conv feature-map statistics, exact vs Ax-FPM vs HEAP",
        model="lenet_digits",
        dataset="digits",
        variants=("exact", "da", "heap"),
        params={
            "n_images": 16,
            "variant_labels": {"exact": "Exact", "da": "Ax-FPM", "heap": "HEAP"},
        },
    ),
    claims=(
        Claim(
            "Ax-FPM highlights features: its last-conv 90th percentile is at "
            "least the exact map's",
            lambda m: m["stats"]["da"]["p90"] >= m["stats"]["exact"]["p90"],
        ),
        Claim(
            "HEAP's last-conv 90th percentile stays at least as close to the "
            "exact map's as Ax-FPM's",
            lambda m: abs(m["stats"]["heap"]["p90"] - m["stats"]["exact"]["p90"])
            <= abs(m["stats"]["da"]["p90"] - m["stats"]["exact"]["p90"]) + 1e-6,
        ),
    ),
)
# ------------------------------------------------------ transferability
register_experiment(
    ExperimentSpec(
        name="table02_transferability_mnist",
        kind="transferability",
        title="Table 2: transferability to the DA LeNet on the digit dataset",
        model="lenet_digits",
        dataset="digits",
        source="exact",
        variants=("exact", "da"),
        attacks=DIGIT_ATTACKS,
        n_samples=N_ATTACK_SAMPLES_DIGITS,
        params={"headers": ["Attack method", "Exact LeNet-5", "Approximate LeNet-5"]},
    ),
    claims=(
        Claim(
            "every attack's examples fool the exact target 100% of the time",
            _exact_target_always_fooled,
        ),
        Claim(
            "DA blocks a meaningful share of transfers (mean DA success < 90%)",
            lambda m: m["mean_target_success"]["da"] < 0.9,
        ),
    ),
)
register_experiment(
    ExperimentSpec(
        name="table03_transferability_cifar",
        kind="transferability",
        title="Table 3: transferability to the DA AlexNet on the object dataset",
        model="alexnet_objects",
        dataset="objects",
        source="exact",
        variants=("exact", "da"),
        attacks=OBJECT_ATTACKS,
        n_samples=N_ATTACK_SAMPLES_OBJECTS,
        params={"headers": ["Attack method", "Exact AlexNet", "Approximate AlexNet"]},
    ),
    claims=(
        Claim(
            "every attack's examples fool the exact target 100% of the time",
            _exact_target_always_fooled,
            profiles=FULL_ONLY,
        ),
        Claim(
            "DA blocks some transfers (mean DA success < 95%)",
            lambda m: m["mean_target_success"]["da"] < 0.95,
        ),
    ),
)
# ------------------------------------------------------------ black box
register_experiment(
    ExperimentSpec(
        name="table04_blackbox_mnist",
        kind="blackbox",
        title="Table 4: black-box (substitute-model) attacks on the digit dataset",
        model="lenet_digits",
        dataset="digits",
        variants=("exact", "da"),
        attacks=_entries(DIGIT_ATTACKS, "FGSM", "PGD", "JSMA", "C&W", "DF", "LSA"),
        n_samples=N_ATTACK_SAMPLES_DIGITS,
        params={
            "substitute": "substitute_digits",
            "headers": ["Attack method", "Exact LeNet-5", "Approximate LeNet-5"],
        },
    ),
    claims=(
        Claim(
            "the DA victim resists black-box attacks at least as well as the "
            "exact one (mean DA success <= exact + 0.1)",
            lambda m: m["mean_victim_success"]["da"] <= m["mean_victim_success"]["exact"] + 0.1,
        ),
        Claim(
            "mean black-box success against DA is below 90%",
            lambda m: m["mean_victim_success"]["da"] < 0.9,
        ),
    ),
)
# ------------------------------------------------------------- DA vs DQ
register_experiment(
    ExperimentSpec(
        name="table05_da_vs_dq",
        kind="transferability",
        title="Table 5: DA vs Defensive Quantization under transferability",
        model="alexnet_objects",
        dataset="objects",
        source="exact",
        variants=("exact", "da", "dq_full", "dq_weight"),
        attacks=_entries(OBJECT_ATTACKS, "FGSM", "PGD", "C&W"),
        n_samples=N_ATTACK_SAMPLES_OBJECTS,
        params={"headers": ["Attack method", "Exact", "DA", "DQ: Full", "DQ: Weight-only"]},
    ),
    # the DQ targets are separately trained models, so transfer to them is
    # naturally low; DA is compared against the exact target, which shares
    # the source's parameters
    claims=(
        Claim(
            "DA blocks some transfers (mean DA success < 95%)",
            lambda m: m["mean_target_success"]["da"] < 0.95,
        ),
        Claim(
            "every attack's examples fool the exact target 100% of the time",
            _exact_target_always_fooled,
            profiles=FULL_ONLY,
        ),
    ),
)
# ------------------------------------------------------------- accuracy
register_experiment(
    ExperimentSpec(
        name="table06_accuracy",
        kind="accuracy",
        title="Table 6: clean accuracy of all hardware variants on both datasets",
        params={
            "columns": [
                {
                    "key": "digits",
                    "label": "Digits (MNIST sub.)",
                    "model": "lenet_digits",
                    "variants": ["exact", "da", "bfloat16"],
                    "n_samples": 200,
                },
                {
                    "key": "objects",
                    "label": "Objects (CIFAR-10 sub.)",
                    "model": "alexnet_objects",
                    "variants": ["exact", "da", "dq_full", "dq_weight", "bfloat16"],
                    "n_samples": 150,
                },
            ],
            "rows": [
                {"label": "Float32", "variant": "exact"},
                {"label": "Approximate (DA)", "variant": "da"},
                {"label": "Fully quantized", "variant": "dq_full"},
                {"label": "Weight-only quantized", "variant": "dq_weight"},
                {"label": "Bfloat16", "variant": "bfloat16"},
            ],
        },
    ),
    claims=(
        Claim(
            "the exact LeNet is over 90% accurate",
            lambda m: m["accuracy"]["digits"]["exact"] > 0.9,
            profiles=FULL_ONLY,
        ),
        Claim(
            "DA costs the LeNet under 15 points of clean accuracy",
            lambda m: m["accuracy"]["digits"]["da"] > m["accuracy"]["digits"]["exact"] - 0.15,
        ),
        Claim(
            "bfloat16 stays within 2 points of the exact LeNet's accuracy",
            lambda m: abs(m["accuracy"]["digits"]["bfloat16"] - m["accuracy"]["digits"]["exact"])
            < 0.02,
        ),
        Claim(
            "DA costs the AlexNet under 20 points of clean accuracy",
            lambda m: m["accuracy"]["objects"]["da"] > m["accuracy"]["objects"]["exact"] - 0.2,
        ),
        Claim(
            "bfloat16 stays within 2 points of the exact AlexNet's accuracy",
            lambda m: abs(
                m["accuracy"]["objects"]["bfloat16"] - m["accuracy"]["objects"]["exact"]
            )
            < 0.02,
        ),
    ),
)
# ------------------------------------------------------- hardware costs
register_experiment(
    ExperimentSpec(
        name="table07_energy_delay",
        kind="energy",
        title="Table 7: normalised energy / delay of the floating point multipliers",
        params={"table": "fpm"},
    ),
    claims=(
        Claim(
            "the exact multiplier normalises to energy 1 and delay 1",
            lambda m: m["by_name"]["Exact multiplier"] == {"energy": 1.0, "delay": 1.0},
        ),
        Claim(
            "Ax-FPM's energy lies between 0.3 and 0.7 (paper: 0.487)",
            lambda m: 0.3 < m["by_name"]["Ax-FPM"]["energy"] < 0.7,
        ),
        Claim(
            "Ax-FPM's delay lies between 0.15 and 0.5 (paper: 0.29)",
            lambda m: 0.15 < m["by_name"]["Ax-FPM"]["delay"] < 0.5,
        ),
        Claim(
            "bfloat16 costs less energy and delay than the exact multiplier",
            lambda m: m["by_name"]["Bfloat16"]["energy"] < 1.0
            and m["by_name"]["Bfloat16"]["delay"] < 1.0,
        ),
    ),
)
register_experiment(
    ExperimentSpec(
        name="table08_multiplier_accuracy",
        kind="multiplier_accuracy",
        title="Table 8: multiplier error metrics and LeNet clean accuracy",
        model="lenet_digits",
        dataset="digits",
        n_samples=200,
        params={
            "profile_samples": 100_000,
            "rows": [
                {"label": "Exact multiplier", "variant": "exact", "profile": None},
                {"label": "HEAP", "variant": "heap", "profile": "heap"},
                {"label": "Ax-FPM", "variant": "da", "profile": "axfpm"},
            ],
        },
    ),
    claims=(
        Claim(
            "HEAP's MRED is below Ax-FPM's",
            lambda m: m["profiles"]["HEAP"]["mred"] < m["profiles"]["Ax-FPM"]["mred"],
        ),
        Claim(
            "the exact LeNet is over 90% accurate",
            lambda m: m["accuracy"]["Exact multiplier"] > 0.9,
            profiles=FULL_ONLY,
        ),
        Claim(
            "the HEAP LeNet is at most 5 points less accurate than the Ax-FPM one",
            lambda m: m["accuracy"]["HEAP"] >= m["accuracy"]["Ax-FPM"] - 0.05,
        ),
        Claim(
            "Ax-FPM costs the LeNet under 15 points of clean accuracy",
            lambda m: m["accuracy"]["Ax-FPM"] > m["accuracy"]["Exact multiplier"] - 0.15,
        ),
    ),
)
register_experiment(
    ExperimentSpec(
        name="table09_mantissa_energy",
        kind="energy",
        title="Table 9: normalised energy / delay of the bare mantissa multipliers",
        params={"table": "mantissa"},
    ),
    claims=(
        Claim(
            "mantissa energy orders Ax-FPM < HEAP < exact",
            lambda m: m["by_name"]["Ax-FPM"]["energy"] < m["by_name"]["HEAP"]["energy"] < 1.0,
        ),
        Claim(
            "mantissa delay orders Ax-FPM < HEAP <= exact",
            lambda m: m["by_name"]["Ax-FPM"]["delay"] < m["by_name"]["HEAP"]["delay"] <= 1.0,
        ),
        Claim(
            "Ax-FPM's mantissa energy lies between 0.25 and 0.55 (paper: 0.395)",
            lambda m: 0.25 < m["by_name"]["Ax-FPM"]["energy"] < 0.55,
        ),
        Claim(
            "Ax-FPM's mantissa delay lies between 0.15 and 0.4 (paper: 0.235)",
            lambda m: 0.15 < m["by_name"]["Ax-FPM"]["delay"] < 0.4,
        ),
    ),
)
# ------------------------------------------------------------- ablation
register_experiment(
    ExperimentSpec(
        name="table10_heap_transferability",
        kind="transferability",
        title="Table 10: transferability against HEAP-based vs Ax-FPM-based DA",
        model="lenet_digits",
        dataset="digits",
        source="exact",
        variants=("exact", "heap", "da"),
        attacks=_entries(DIGIT_ATTACKS, "FGSM", "PGD", "JSMA", "C&W", "DF", "LSA"),
        n_samples=N_ATTACK_SAMPLES_DIGITS,
        params={"headers": ["Attack", "Exact-based", "HEAP-based", "Ax-FPM-based"]},
    ),
    claims=(
        Claim(
            "Ax-FPM DA blunts transfer (mean success < 100%)",
            lambda m: m["mean_target_success"]["da"] < 1.0,
        ),
        Claim(
            "Ax-FPM DA is at least as strong a defense as HEAP DA "
            "(mean success <= HEAP's + 0.05)",
            lambda m: m["mean_target_success"]["da"] <= m["mean_target_success"]["heap"] + 0.05,
            profiles=FULL_ONLY,
        ),
    ),
)
