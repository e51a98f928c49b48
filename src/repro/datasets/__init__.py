"""Synthetic image classification datasets.

The paper evaluates on MNIST (LeNet-5) and CIFAR-10 (AlexNet).  Neither corpus
is available in this offline environment, so this package procedurally
generates two datasets with the same structure -- 10-class image
classification, pixel intensities normalised to ``[0, 1]``:

* :mod:`repro.datasets.digits` -- grayscale digit glyphs with random geometric
  jitter, stroke-thickness variation, blur and noise (the MNIST substitute).
* :mod:`repro.datasets.objects` -- 3-channel procedural shape/texture images
  (the CIFAR-10 substitute).

The defense under study depends only on convolution/filter correlation
statistics, not on the particular natural-image corpus, so these substitutes
exercise the same code paths end to end.
"""

#: numerics version of the procedural dataset generators.  Bump when the
#: generated pixels change (glyph rendering, jitter distributions, split
#: logic); cells that consume dataset samples declare a ``"datasets"``
#: dependency and re-key on it, and the zoo's cached splits
#: (``<zoo cache>/splits/``) are regenerated under new names.
DATASET_NUMERICS_VERSION = 1

from repro.datasets.digits import generate_digits, render_digit
from repro.datasets.loader import Dataset, DataSplit, split_sizes, train_test_split
from repro.datasets.objects import OBJECT_CLASS_NAMES, generate_objects, render_object
from repro.registry import registry

#: unified registry of dataset generators (namespace ``"dataset"``)
DATASETS = registry("dataset")
DATASETS.register(
    "digits",
    generate_digits,
    metadata={"summary": "grayscale digit glyphs (MNIST substitute)", "channels": 1},
)
DATASETS.register(
    "objects",
    generate_objects,
    metadata={"summary": "3-channel shape/texture images (CIFAR-10 substitute)", "channels": 3},
)

__all__ = [
    "DATASETS",
    "Dataset",
    "DataSplit",
    "split_sizes",
    "train_test_split",
    "generate_digits",
    "render_digit",
    "generate_objects",
    "render_object",
    "OBJECT_CLASS_NAMES",
]
