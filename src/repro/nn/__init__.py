"""Pure-numpy neural network substrate.

The paper's experiments run LeNet-5 and AlexNet CNNs in PyTorch; no deep
learning framework is available in this offline environment, so this package
implements the required substrate from scratch:

* :mod:`repro.nn.functional` -- im2col convolution, pooling and activation
  primitives with analytic backward passes.
* :mod:`repro.nn.layers` -- layer modules (Conv2d, Linear, ReLU, MaxPool2d,
  BatchNorm2d, Dropout, Flatten) with a shared :class:`Module` interface.
* :mod:`repro.nn.approx` -- approximate layers that route every multiplication
  of the forward pass through a pluggable hardware multiplier model.
* :mod:`repro.nn.quantize` -- DoReFa-style k-bit quantisation layers used for
  the Defensive Quantization baseline.
* :mod:`repro.nn.network` -- the :class:`Sequential` container with parameter
  (de)serialisation.
* :mod:`repro.nn.losses`, :mod:`repro.nn.optim`, :mod:`repro.nn.training` --
  losses, optimisers (SGD / Adam) and a training loop.
* :mod:`repro.nn.models` -- the model zoo (LeNet-5, small AlexNet, DQ CNN).
"""

#: numerics version of the model substrate's forward/backward bit patterns.
#: Bump when inference or training numerics change for *every* model (e.g.
#: the batch-invariant GEMM rework); zoo recipe digests fold it in, so every
#: trained-parameter cache and every model-dependent cell re-keys.
#: Version 2: batch-invariant forward/backward numerics (the old
#: ``ZOO_NUMERICS_VERSION = 2``).
MODEL_NUMERICS_VERSION = 2

from repro.nn.approx import ApproxConv2d, ApproxLinear
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.models import (
    build_alexnet,
    build_dq_cnn,
    build_lenet5,
    convert_to_approximate,
    convert_to_bfloat16,
    forward_macs,
)
from repro.nn.network import Sequential
from repro.nn.optim import SGD, Adam
from repro.nn.quantize import QuantConv2d, QuantLinear, QuantReLU, quantize_tensor
from repro.nn.training import TrainingHistory, evaluate_accuracy, train_classifier

__all__ = [
    "Module",
    "Parameter",
    "Conv2d",
    "Linear",
    "ReLU",
    "MaxPool2d",
    "Flatten",
    "Dropout",
    "BatchNorm2d",
    "ApproxConv2d",
    "ApproxLinear",
    "QuantConv2d",
    "QuantLinear",
    "QuantReLU",
    "quantize_tensor",
    "Sequential",
    "CrossEntropyLoss",
    "MSELoss",
    "SGD",
    "Adam",
    "train_classifier",
    "evaluate_accuracy",
    "TrainingHistory",
    "build_lenet5",
    "build_alexnet",
    "build_dq_cnn",
    "convert_to_approximate",
    "convert_to_bfloat16",
    "forward_macs",
]
