"""Black-box scenario: model extraction plus transfer attack.

The attacker can only query the victim for labels.  They train a substitute
CNN on query responses (Papernot-style), craft adversarial examples on the
substitute, and replay them on the victim.  This example compares how well that
works against the exact classifier and against the Defensive Approximation
classifier (Table 4 of the paper).

Run with:  python examples/blackbox_substitute.py
"""

from repro.attacks import PGD
from repro.attacks.base import Classifier
from repro.core import DefensiveApproximation, train_substitute
from repro.core.evaluation import select_correctly_classified, transfer, transfer_rates
from repro.experiments import lenet_digits
from repro.nn import build_lenet5


def main() -> None:
    print("Loading (or training) the exact LeNet digit classifier...")
    model, split = lenet_digits()
    defense = DefensiveApproximation(model)
    query_set = split.train.images[:800]

    def substitute_factory():
        return build_lenet5(
            split.train.input_shape, conv_channels=(8, 16), fc_sizes=(64, 48), seed=21
        )

    for name, victim in (
        ("exact classifier", defense.exact_classifier()),
        ("Defensive Approximation classifier", defense.defended_classifier()),
    ):
        print(f"\nReverse engineering the {name} from query responses...")
        substitute = train_substitute(
            victim.predict, query_set, build_model=substitute_factory, epochs=15, seed=21
        )
        # black-box is transfer with the substitute as the source and the
        # victim as the only target; victims are the first 15 test samples
        # the substitute gets right
        source = Classifier(substitute)
        victims = select_correctly_classified(source, split.test.images, split.test.labels, 15)
        counts = transfer(
            source,
            {"victim": victim},
            PGD(epsilon=0.1, steps=15),
            split.test.images[victims],
            split.test.labels[victims],
        )
        rates = transfer_rates([counts])
        victim_success = rates["targets"]["victim"]
        print(f"  PGD success on the substitute: {100 * rates['source_success_rate']:.0f}%")
        print(f"  PGD success on the victim:     {100 * victim_success:.0f}%")
        print(f"  victim robustness:             {100 * (1 - victim_success):.0f}%")


if __name__ == "__main__":
    main()
