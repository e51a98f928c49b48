"""White-box scenario: how much noise does an adaptive attacker need?

Reproduces the Figures 8-11 experiment on a small scale: the DeepFool attack is
run with full (BPDA) gradient access against both the exact and the Defensive
Approximation classifier, and the perturbation budget (L2, MSE, PSNR) of the
successful adversarial examples is compared.

Run with:  python examples/whitebox_noise_budget.py
"""

from repro.attacks import DeepFool
from repro.core import DefensiveApproximation
from repro.core.evaluation import select_correctly_classified, white_box, white_box_budget
from repro.experiments import lenet_digits


def main() -> None:
    print("Loading (or training) the exact LeNet digit classifier...")
    model, split = lenet_digits()
    defense = DefensiveApproximation(model)

    for name, victim in (
        ("exact classifier", defense.exact_classifier()),
        ("Defensive Approximation classifier", defense.defended_classifier()),
    ):
        print(f"\nAttacking the {name} with white-box DeepFool...")
        # only samples the victim gets right are attacked: fooling an
        # already-misclassified sample needs no perturbation
        victims = select_correctly_classified(victim, split.test.images, split.test.labels, 5)
        stats = white_box(
            victim,
            DeepFool(max_iterations=30),
            split.test.images[victims],
            split.test.labels[victims],
        )
        budget = white_box_budget([stats])
        print(f"  attack success rate: {100 * budget['success_rate']:.0f}%")
        print(f"  mean L2 perturbation: {budget['mean_l2']:.3f}")
        print(f"  mean MSE:             {budget['mean_mse']:.5f}")
        print(f"  mean PSNR:            {budget['mean_psnr']:.1f} dB")

    print(
        "\nA white-box attacker can always succeed eventually; the defense shows up as a\n"
        "larger perturbation budget (larger L2/MSE, lower PSNR) against the DA classifier."
    )


if __name__ == "__main__":
    main()
