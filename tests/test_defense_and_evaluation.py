"""Tests for the DA defense wrapper, confidence analysis and threat-model protocols."""

import numpy as np
import pytest

from repro.arith.fpm import Bfloat16Multiplier
from repro.attacks import FGSM, PGD
from repro.attacks.base import Classifier
from repro.core.confidence import classification_confidence, compare_confidence
from repro.core.defense import DefensiveApproximation
from repro.core.evaluation import (
    select_correctly_classified,
    transfer,
    transfer_rates,
    white_box,
    white_box_budget,
)
from repro.core.results import format_percentage, format_table
from repro.core.substitute import train_substitute


# ----------------------------------------------------------------- defense
def test_defense_builds_approximate_model_sharing_weights(tiny_model):
    defense = DefensiveApproximation(tiny_model)
    assert defense.approximate_model is not tiny_model
    assert defense.approximate_model.layers[0].weight is tiny_model.layers[0].weight


def test_defense_accuracy_report(tiny_model, digit_split):
    defense = DefensiveApproximation(tiny_model)
    report = defense.accuracy_report(digit_split.test.images[:60], digit_split.test.labels[:60])
    assert report.exact_accuracy > 0.7
    assert report.approximate_accuracy > 0.5
    assert report.accuracy_drop == pytest.approx(
        report.exact_accuracy - report.approximate_accuracy
    )


def test_defense_with_bfloat16_multiplier_tracks_exact(tiny_model, digit_split):
    defense = DefensiveApproximation(tiny_model, multiplier=Bfloat16Multiplier())
    x = digit_split.test.images[:20]
    np.testing.assert_array_equal(defense.predict(x), tiny_model.predict(x))


def test_defense_classifier_facades(tiny_model):
    defense = DefensiveApproximation(tiny_model)
    assert isinstance(defense.exact_classifier(), Classifier)
    assert isinstance(defense.defended_classifier(), Classifier)


# -------------------------------------------------------------- confidence
def test_classification_confidence_range(tiny_model, digit_split):
    conf = classification_confidence(
        tiny_model, digit_split.test.images[:40], digit_split.test.labels[:40]
    )
    assert conf.shape == (40,)
    assert np.all(conf >= -1.0) and np.all(conf <= 1.0)


def test_da_confidence_enhancement(tiny_model, tiny_approx_model, digit_split):
    """Figure 12: on samples both classifiers get right, the approximate
    classifier is at least as confident as the exact one."""
    x = digit_split.test.images[:150]
    y = digit_split.test.labels[:150]
    both_correct = np.flatnonzero((tiny_model.predict(x) == y) & (tiny_approx_model.predict(x) == y))
    comparison = compare_confidence(tiny_model, tiny_approx_model, x[both_correct], y[both_correct])
    exact_mean, approx_mean = comparison.mean_confidence()
    assert approx_mean > exact_mean - 0.05
    cdf = comparison.cumulative_distribution(n_points=21)
    assert cdf["thresholds"].shape == (21,)
    assert cdf["exact_cdf"][-1] == pytest.approx(1.0)


# ------------------------------------------------------------- evaluation
def test_select_correctly_classified(tiny_classifier, digit_split):
    indices = select_correctly_classified(
        tiny_classifier, digit_split.test.images[:50], digit_split.test.labels[:50], max_samples=10
    )
    assert len(indices) <= 10
    preds = tiny_classifier.predict(digit_split.test.images[:50][indices])
    np.testing.assert_array_equal(preds, digit_split.test.labels[:50][indices])


def _victims(classifier, split, max_samples):
    """The first ``max_samples`` test samples ``classifier`` labels correctly."""
    indices = select_correctly_classified(
        classifier, split.test.images, split.test.labels, max_samples
    )
    return split.test.images[indices], split.test.labels[indices]


class _Unreachable:
    """An attack that fails the test if anything calls it."""

    name = "unreachable"

    def generate(self, *_args):
        raise AssertionError("the attack ran on an empty slice")


def test_transferability_da_blunts_fgsm(tiny_model, tiny_approx_model, digit_split):
    """The core claim (Tables 2/3): attacks crafted on the exact model transfer
    poorly to the DA model."""
    source = Classifier(tiny_model)
    targets = {"exact": Classifier(tiny_model), "approximate": Classifier(tiny_approx_model)}
    x, y = _victims(source, digit_split, 12)
    rates = transfer_rates([transfer(source, targets, FGSM(epsilon=0.2), x, y)])
    assert rates["n_crafted"] == 12
    assert rates["source_success_rate"] > 0.4
    # replaying against the source itself succeeds by construction
    assert rates["targets"]["exact"] == pytest.approx(1.0)
    assert rates["targets"]["approximate"] <= rates["targets"]["exact"]


def test_black_box_evaluation(tiny_model, tiny_approx_model, digit_split):
    victim = Classifier(tiny_approx_model)
    substitute = Classifier(tiny_model)  # stand-in substitute: the exact twin
    x, y = _victims(substitute, digit_split, 10)
    counts = transfer(substitute, {"victim": victim}, FGSM(epsilon=0.2), x, y)
    assert counts["n"] == 10
    assert 0 <= counts["targets"]["victim"] <= counts["n_fooled"] <= counts["n"]
    rates = transfer_rates([counts])
    assert 0.0 <= rates["source_success_rate"] <= 1.0
    assert 0.0 <= rates["targets"]["victim"] <= 1.0


def test_white_box_evaluation_reports_perturbation_stats(tiny_classifier, digit_split):
    x, y = _victims(tiny_classifier, digit_split, 8)
    stats = white_box(tiny_classifier, PGD(epsilon=0.2, steps=10), x, y)
    assert len(stats["l2"]) == len(stats["mse"]) == len(stats["psnr"]) == stats["n_success"]
    budget = white_box_budget([stats])
    assert budget["n_samples"] <= 8
    if budget["success_rate"] > 0:
        assert budget["mean_l2"] > 0
        assert budget["mean_psnr"] > 0
        assert budget["mean_mse"] > 0


def test_protocols_skip_the_attack_on_an_empty_slice(tiny_classifier, digit_split):
    x = digit_split.test.images[:0]
    y = digit_split.test.labels[:0]
    counts = transfer(tiny_classifier, {"da": tiny_classifier}, _Unreachable(), x, y)
    assert counts == {"n": 0, "n_fooled": 0, "targets": {"da": 0}}
    stats = white_box(tiny_classifier, _Unreachable(), x, y)
    assert stats == {"n": 0, "n_success": 0, "l2": [], "mse": [], "psnr": []}
    # a rate over zero examples reads 0.0, a mean over none NaN
    assert transfer_rates([counts]) == {
        "n_crafted": 0,
        "n_source_success": 0,
        "source_success_rate": 0.0,
        "targets": {"da": 0.0},
    }
    budget = white_box_budget([stats])
    assert budget["success_rate"] == 0.0 and np.isnan(budget["mean_l2"])


def test_folds_sum_slices():
    slices = [
        {"n": 4, "n_fooled": 3, "targets": {"exact": 3, "da": 1}},
        {"n": 2, "n_fooled": 1, "targets": {"exact": 1, "da": 1}},
    ]
    rates = transfer_rates(slices)
    assert rates == {
        "n_crafted": 6,
        "n_source_success": 4,
        "source_success_rate": 4 / 6,
        "targets": {"exact": 1.0, "da": 0.5},
    }
    budget = white_box_budget(
        [
            {"n": 2, "n_success": 1, "l2": [1.0], "mse": [0.5], "psnr": [20.0]},
            {"n": 2, "n_success": 2, "l2": [2.0, 3.0], "mse": [0.5, 0.5], "psnr": [30.0, 40.0]},
        ]
    )
    assert budget == {
        "n_samples": 4,
        "success_rate": 0.75,
        "mean_l2": 2.0,
        "mean_mse": 0.5,
        "mean_psnr": 30.0,
    }


def test_substitute_training_learns_victim_behaviour(tiny_model, digit_split):
    victim = Classifier(tiny_model)
    substitute = train_substitute(
        victim.predict,
        digit_split.train.images[:600],
        epochs=15,
        augmentation_rounds=1,
        seed=1,
    )
    x = digit_split.test.images[:80]
    agreement = np.mean(substitute.predict(x) == tiny_model.predict(x))
    assert agreement > 0.4


# ----------------------------------------------------------------- results
def test_format_table_alignment():
    table = format_table(["a", "b"], [["x", 1.5], ["yy", 2]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "1.500" in table


def test_format_percentage():
    assert format_percentage(0.123) == "12%"
