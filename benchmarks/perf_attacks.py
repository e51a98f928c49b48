"""Attack-engine throughput benchmark: batched active-set rollouts vs the
pre-PR per-example attack loops.

For each of the six historically loop-based attacks (DeepFool, C&W, JSMA,
LSA, Boundary, HopSkipJump) this times

* the **pre-PR per-example path**: the frozen reference loops of
  ``tests/attack_reference.py`` driven one victim at a time against a
  classifier with the pre-PR gradient semantics (``zero_grad`` + parameter
  gradient accumulation), and
* the **batched engine**: the active-set rollouts of
  :mod:`repro.attacks.batched` advancing all victims per model call,

on the exact and the approximate (Defensive Approximation) victim at
shard/batch size 8, asserting **byte-identical adversarial examples and
identical query/gradient budgets** before recording any number.  The record
is written to ``BENCH_attacks.json`` at the repository root.

Interpreting the speedups: batching converts per-call fixed overhead
(layer dispatch, im2col, kernel setup, BPDA bookkeeping) from per-example
to per-batch, so the ceiling is the model-call amortisation ratio
``8 * t(batch 1) / t(batch 8)``, which the record also measures.  On a
single-core box that ceiling is ~3x for forwards and ~4x for gradients;
gradient-heavy attacks (C&W, DeepFool -- the wall-time dominators of the
paper's attack grids) approach it, while LSA/HopSkipJump already batched
their probes per example and gain less.  Run it directly::

    PYTHONPATH=src python benchmarks/perf_attacks.py [--smoke] [--out PATH]

``--smoke`` runs the parity assertions across batch sizes 1/3/8 with tiny
budgets (CI mode; exits non-zero on any divergence).
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from attack_reference import reference_perturb  # noqa: E402
from common import (  # noqa: E402
    add_record_arguments,
    check_regression,
    provenance,
    record_paths,
    write_record,
)
from repro.attacks.base import Classifier  # noqa: E402
from repro.attacks.registry import create_attack  # noqa: E402
from repro.core.evaluation import select_correctly_classified  # noqa: E402
from repro.experiments.zoo import lenet_digits  # noqa: E402
from repro.nn.losses import CrossEntropyLoss  # noqa: E402
from repro.nn.models import model_variant  # noqa: E402

BATCH = 8  # the shard/batch size the pipeline runs attacks at
SEED = 20260729

#: per-attack budgets, scaled like the pipeline's fast profile
ATTACK_PARAMS = {
    "deepfool": dict(max_iterations=8),
    "cw": dict(max_iterations=25, num_const_steps=2),
    "jsma": dict(gamma=0.05),
    "lsa": dict(max_rounds=6, candidates_per_round=24, pixels_per_round=3),
    "boundary": dict(max_iterations=40, init_trials=20),
    "hsj": dict(max_iterations=3, init_trials=20, num_eval_samples=12, binary_search_steps=5),
}
SMOKE_PARAMS = {
    "deepfool": dict(max_iterations=3),
    "cw": dict(max_iterations=6, num_const_steps=1),
    "jsma": dict(gamma=0.02),
    "lsa": dict(max_rounds=2, candidates_per_round=8, pixels_per_round=2),
    "boundary": dict(max_iterations=6, init_trials=8),
    "hsj": dict(max_iterations=1, init_trials=8, num_eval_samples=6, binary_search_steps=3),
}
SEEDED = {"lsa", "boundary", "hsj"}

#: ``--check`` gates the batched-vs-loop speedup geomeans.  The floors are
#: deliberately loose (0.3x): CI runs ``--smoke``, whose tiny budgets shift
#: the per-attack mix relative to a full-profile baseline record, and the
#: gate only needs to catch the engine degenerating to per-example rollouts
#: (geomeans collapsing to ~1x), not a few percent of timing noise.
CHECK_METRICS = [
    ("geomean_speedup", lambda r: r["geomean_speedup"], 0.3),
    ("exact_geomean_speedup", lambda r: r["victims"]["exact"]["geomean_speedup"], 0.3),
    ("da_geomean_speedup", lambda r: r["victims"]["da"]["geomean_speedup"], 0.3),
]


class PrePRClassifier(Classifier):
    """The pre-PR gradient semantics: ``zero_grad`` + parameter-gradient
    accumulation per call.  Input gradients are bit-identical to the current
    facade (parameter gradients never feed them), so the baseline can be
    parity-checked against the batched engine while paying the historical
    per-call cost."""

    def loss_gradient(self, x, y):  # pragma: no cover - timing baseline
        self.gradient_count += len(x)
        x = np.asarray(x, dtype=np.float32)
        was_training = self.model.training
        self.model.set_training(False)
        try:
            self.model.zero_grad()
            logits = self.model.forward(x)
            criterion = CrossEntropyLoss()
            criterion.forward(logits, y)
            return self.model.backward(criterion.backward() * len(x))
        finally:
            self.model.set_training(was_training)

    def logits_gradient(self, x, grad_logits):
        self.gradient_count += len(x)
        x = np.asarray(x, dtype=np.float32)
        was_training = self.model.training
        self.model.set_training(False)
        try:
            self.model.zero_grad()
            self.model.forward(x)
            return self.model.backward(np.asarray(grad_logits, dtype=np.float32))
        finally:
            self.model.set_training(was_training)

    # pre-PR: no shared-forward gradient sweep, no cached backward -- every
    # vector-Jacobian product pays its own forward pass
    def gradient_sweep(self, x, cotangents):
        return [self.logits_gradient(x, np.array(ct, copy=True)) for ct in cotangents]

    def cached_logits_gradient(self, grad_logits):  # pragma: no cover
        raise NotImplementedError("pre-PR facade has no cached backward")

    def jacobian(self, x):
        n = len(x)
        n_classes = self.num_classes
        jac = np.zeros((n, n_classes) + x.shape[1:], dtype=np.float32)
        for k in range(n_classes):
            grad = np.zeros((n, n_classes), dtype=np.float32)
            grad[:, k] = 1.0
            jac[:, k] = self.logits_gradient(x, grad)
        return jac


def geomean(values):
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=np.float64)))))


def best_of(fn, repeats):
    best, out = np.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def call_amortization(classifier, x, y, repeats=20):
    """``batch * t(batch 1) / t(batch)`` for forward and gradient calls."""
    classifier.predict_logits(x)
    classifier.loss_gradient(x, y)  # warm kernels / weight tables
    f1, _ = best_of(lambda: classifier.predict_logits(x[:1]), repeats)
    f8, _ = best_of(lambda: classifier.predict_logits(x), repeats)
    g1, _ = best_of(lambda: classifier.loss_gradient(x[:1], y[:1]), repeats)
    g8, _ = best_of(lambda: classifier.loss_gradient(x, y), repeats)
    return {
        "forward": round(len(x) * f1 / f8, 2),
        "gradient": round(len(x) * g1 / g8, 2),
    }


def run_attack_pair(name, params, clf, baseline, x, y, repeats):
    """Time batched vs per-example loop; returns the record and parity flag."""
    kwargs = dict(params)
    if name in SEEDED:
        kwargs["seed"] = SEED

    def batched():
        attack = create_attack(name, **kwargs)
        clf.reset_counters()
        adversarial = attack.perturb(clf, x, y)
        return adversarial, clf.query_count, clf.gradient_count

    def loop():
        baseline.reset_counters()
        adversarial = reference_perturb(
            name, baseline, x, y, params=params, seed=SEED if name in SEEDED else 0
        )
        return adversarial, baseline.query_count, baseline.gradient_count

    t_batched, (adv_b, q_b, g_b) = best_of(batched, repeats)
    t_loop, (adv_l, q_l, g_l) = best_of(loop, repeats)
    identical = (
        adv_b.tobytes() == adv_l.tobytes() and (q_b, g_b) == (q_l, g_l)
    )
    return {
        "loop_seconds": round(t_loop, 4),
        "batched_seconds": round(t_batched, 4),
        "speedup": round(t_loop / t_batched, 2),
        "queries": q_b,
        "gradients": g_b,
        "bit_identical": bool(adv_b.tobytes() == adv_l.tobytes()),
        "budget_identical": bool((q_b, g_b) == (q_l, g_l)),
    }, identical


def smoke_parity(clf, x, y, params_by_attack):
    """Cross-batch-size parity sweep; returns the list of failures."""
    failures = []
    for name, params in params_by_attack.items():
        kwargs = dict(params)
        if name in SEEDED:
            kwargs["seed"] = SEED
        for batch in (1, 3, BATCH):
            attack = create_attack(name, **kwargs)
            clf.reset_counters()
            adv_b = attack.perturb(clf, x[:batch], y[:batch])
            counts_b = (clf.query_count, clf.gradient_count)
            clf.reset_counters()
            adv_l = reference_perturb(
                name, clf, x[:batch], y[:batch], params=params,
                seed=SEED if name in SEEDED else 0,
            )
            counts_l = (clf.query_count, clf.gradient_count)
            if adv_b.tobytes() != adv_l.tobytes() or counts_b != counts_l:
                failures.append(f"{name} @ batch {batch}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="parity-focused CI mode")
    parser.add_argument("--repeats", type=int, default=3, help="timing repetitions (best-of)")
    add_record_arguments(parser, "attacks")
    args = parser.parse_args(argv)
    params_by_attack = SMOKE_PARAMS if args.smoke else ATTACK_PARAMS
    repeats = 1 if args.smoke else max(1, args.repeats)
    out_path, baseline_record = record_paths(args, "attacks")

    model, split = lenet_digits(fast=True)
    probe = Classifier(model)
    victims = select_correctly_classified(
        probe, split.test.images, split.test.labels, BATCH
    )
    x = split.test.images[victims].astype(np.float32)
    y = split.test.labels[victims]

    record = {
        "benchmark": "batched_attack_engine",
        "batch_size": BATCH,
        "smoke": bool(args.smoke),
        **provenance(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "baseline": "pre-PR per-example loops (tests/attack_reference.py) on the "
        "pre-PR gradient path (zero_grad + parameter-gradient accumulation)",
        "victims": {},
        "parity_failures": [],
    }

    all_speedups = []
    for variant in ("exact", "da"):
        victim_model = model_variant(model, variant)
        clf = Classifier(victim_model)
        baseline = PrePRClassifier(victim_model)
        clf.predict_logits(x)
        clf.loss_gradient(x, y)  # warm LUTs / fused-kernel weight tables
        attacks = {}
        speedups = []
        for name, params in params_by_attack.items():
            entry, identical = run_attack_pair(name, params, clf, baseline, x, y, repeats)
            attacks[name] = entry
            speedups.append(entry["speedup"])
            if not identical:
                record["parity_failures"].append(f"{variant}/{name}")
        record["victims"][variant] = {
            "attacks": attacks,
            "geomean_speedup": round(geomean(speedups), 2),
            "call_amortization_ceiling": call_amortization(clf, x, y),
        }
        all_speedups.extend(speedups)
        if args.smoke:
            record["parity_failures"].extend(
                f"{variant}/{failure}" for failure in smoke_parity(clf, x, y, params_by_attack)
            )

    record["geomean_speedup"] = round(geomean(all_speedups), 2)
    record["note"] = (
        "Speedups are bounded by the model-call amortization ceiling recorded "
        "per victim (single-core BLAS: ~3x forward, ~4x gradient at batch 8). "
        "Gradient-call-dominated attacks (cw, deepfool, jsma) approach the "
        "ceiling; lsa/hsj already batched their probes per example pre-PR and "
        "gain the least."
    )

    write_record(out_path, record)
    if record["parity_failures"]:
        print(f"ERROR: parity failures: {record['parity_failures']}", file=sys.stderr)
        return 1
    if args.check:
        if baseline_record and baseline_record.get("smoke") != record["smoke"]:
            print(
                "# perf check: baseline profile differs (smoke="
                f"{baseline_record.get('smoke')} vs {record['smoke']}); floors "
                "are loose enough to compare across profiles"
            )
        if check_regression(baseline_record, record, CHECK_METRICS):
            print("ERROR: attack-engine performance regressed", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
