"""End-to-end integration tests: train, defend, attack, evaluate.

These tests run the full Defensive Approximation pipeline on miniature models
and datasets.  They assert the *direction* of the paper's findings (DA keeps
clean accuracy, blunts transferred attacks, raises the white-box noise budget)
rather than specific percentages.
"""

import numpy as np
import pytest

from repro.arith.fpm import HEAPMultiplier
from repro.attacks import FGSM, PGD, DeepFool
from repro.attacks.base import Classifier
from repro.core.defense import DefensiveApproximation
from repro.core.evaluation import (
    select_correctly_classified,
    transfer,
    transfer_rates,
    white_box,
    white_box_budget,
)
from repro.nn import evaluate_accuracy
from repro.nn.models import convert_to_approximate


def test_full_pipeline_transferability(tiny_model, tiny_approx_model, digit_split):
    defense = DefensiveApproximation(tiny_model)
    source = defense.exact_classifier()
    targets = {
        "exact": Classifier(tiny_model),
        "da": defense.defended_classifier(),
    }
    victims = select_correctly_classified(
        source, digit_split.test.images, digit_split.test.labels, max_samples=12
    )
    images = digit_split.test.images[victims]
    labels = digit_split.test.labels[victims]

    total_da_success = []
    for attack in (FGSM(epsilon=0.1), DeepFool(max_iterations=25)):
        rates = transfer_rates([transfer(source, targets, attack, images, labels)])
        assert rates["targets"]["exact"] == pytest.approx(1.0)
        total_da_success.append(rates["targets"]["da"])
    # on average across attacks the DA model resists a meaningful share of the
    # adversarial examples that fully fool the exact model
    assert np.mean(total_da_success) < 0.95


def test_da_accuracy_and_confidence_shape(tiny_model, tiny_approx_model, digit_split):
    x = digit_split.test.images[:80]
    y = digit_split.test.labels[:80]
    exact_acc = evaluate_accuracy(tiny_model, x, y)
    da_acc = evaluate_accuracy(tiny_approx_model, x, y)
    assert exact_acc > 0.7
    # DA must not collapse the classifier
    assert da_acc > 0.5


def test_white_box_needs_more_noise_on_da(tiny_model, tiny_approx_model, digit_split):
    """Figures 8-11: DeepFool needs a larger perturbation to fool the DA model."""
    budgets = {}
    for name, model in (("exact", tiny_model), ("da", tiny_approx_model)):
        victim = Classifier(model)
        victims = select_correctly_classified(
            victim, digit_split.test.images, digit_split.test.labels, max_samples=5
        )
        stats = white_box(
            victim,
            DeepFool(max_iterations=25),
            digit_split.test.images[victims],
            digit_split.test.labels[victims],
        )
        budgets[name] = white_box_budget([stats])
    exact_eval, da_eval = budgets["exact"], budgets["da"]
    # both should mostly succeed (white-box attacks always can), but the noise
    # budget on DA should not be smaller than on the exact classifier
    if exact_eval["success_rate"] > 0 and da_eval["success_rate"] > 0:
        assert da_eval["mean_l2"] >= 0.5 * exact_eval["mean_l2"]


def test_heap_based_defense_also_works(tiny_model, digit_split):
    heap_model = convert_to_approximate(tiny_model, multiplier=HEAPMultiplier(frac_bits=8))
    x = digit_split.test.images[:40]
    y = digit_split.test.labels[:40]
    assert evaluate_accuracy(heap_model, x, y) > 0.6


def test_defense_is_deterministic(tiny_model, digit_split):
    defense_a = DefensiveApproximation(tiny_model)
    defense_b = DefensiveApproximation(tiny_model)
    x = digit_split.test.images[:10]
    np.testing.assert_array_equal(defense_a.predict(x), defense_b.predict(x))
