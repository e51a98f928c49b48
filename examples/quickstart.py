"""Quickstart: train a digit classifier, defend it with Defensive Approximation,
and watch a transferred FGSM attack bounce off.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.attacks import FGSM
from repro.core import DefensiveApproximation
from repro.core.evaluation import select_correctly_classified, transfer, transfer_rates
from repro.datasets import generate_digits, train_test_split
from repro.nn import Adam, build_lenet5, train_classifier


def main() -> None:
    # 1. Data: a synthetic MNIST-like digit dataset (offline substitute).
    print("Generating the synthetic digit dataset...")
    split = train_test_split(generate_digits(n_samples=3000, size=16, seed=1), test_fraction=0.15)

    # 2. Train an ordinary (exact-hardware) LeNet-5.
    print("Training the exact LeNet-5 classifier...")
    model = build_lenet5(split.train.input_shape, conv_channels=(12, 24), fc_sizes=(96, 64))
    optimizer = Adam(model.parameters(), lr=0.002)
    history = train_classifier(
        model,
        optimizer,
        split.train.images,
        split.train.labels,
        split.test.images,
        split.test.labels,
        epochs=20,
        batch_size=64,
    )
    print(f"  clean accuracy of the exact model: {history.final_val_accuracy:.3f}")

    # 3. Defend it: swap the convolution hardware for the approximate Ax-FPM.
    #    No retraining, no fine-tuning -- the weights are shared.
    print("Converting to the Defensive Approximation (Ax-FPM) model...")
    defense = DefensiveApproximation(model)
    report = defense.accuracy_report(split.test.images[:200], split.test.labels[:200])
    print(
        f"  clean accuracy: exact {report.exact_accuracy:.3f} vs "
        f"DA {report.approximate_accuracy:.3f} (drop {report.accuracy_drop:.3f})"
    )

    # 4. Attack: craft FGSM adversarial examples against the exact model and
    #    replay them against both models (the transferability threat model).
    #    Victims are the first 20 test samples the exact model gets right.
    print("Crafting FGSM adversarial examples on the exact model...")
    source = defense.exact_classifier()
    victims = select_correctly_classified(source, split.test.images, split.test.labels, 20)
    counts = transfer(
        source,
        {"exact": defense.exact_classifier(), "defended (DA)": defense.defended_classifier()},
        FGSM(epsilon=0.1),
        split.test.images[victims],
        split.test.labels[victims],
    )
    success = transfer_rates([counts])["targets"]
    print(f"  attack success on the exact model:    {100 * success['exact']:.0f}%")
    print(f"  attack success on the defended model: {100 * success['defended (DA)']:.0f}%")
    print(f"  => Defensive Approximation blocked "
          f"{100 * (1 - success['defended (DA)']):.0f}% of the transferred attacks")


if __name__ == "__main__":
    main()
