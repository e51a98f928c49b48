"""Experiment infrastructure shared by the pipeline and the examples.

:mod:`repro.experiments.zoo` trains (and disk-caches) the paper's benchmark
models on the synthetic datasets: the exact LeNet-5 digit classifier, the
exact AlexNet object classifier, and the Defensive Quantization variants.
Every experiment and example pulls its models from here so the expensive
training happens at most once per machine.
"""

from repro.experiments.zoo import (
    CACHE_DIR,
    ZOO,
    alexnet_objects,
    dq_models_objects,
    lenet_digits,
    load_digits_split,
    load_objects_split,
    substitute_digits,
)

__all__ = [
    "CACHE_DIR",
    "ZOO",
    "load_digits_split",
    "load_objects_split",
    "lenet_digits",
    "alexnet_objects",
    "dq_models_objects",
    "substitute_digits",
]
