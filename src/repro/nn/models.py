"""Model zoo: LeNet-5, a compact AlexNet, and the Defensive Quantization CNN.

The architectures follow the paper's experimental setup (Section 5.1 and
Appendix B) scaled to the synthetic datasets shipped with this reproduction:

* **LeNet-5** -- two convolution layers, two max-pooling layers and a small
  fully connected head, for grayscale digit classification.
* **AlexNet** -- five convolution layers, three max-pooling layers and three
  fully connected layers, for 3-channel object classification.  Channel counts
  are reduced so the network trains in seconds on CPU; the layer structure is
  preserved.
* **DQ CNN** -- the six-convolution-block architecture of Appendix B used for
  the Defensive Quantization comparison, in *full* (weights + activations) and
  *weight-only* quantised variants.

``convert_to_approximate`` turns any trained model into its Defensive
Approximation counterpart by swapping every exact convolution for an
:class:`~repro.nn.approx.ApproxConv2d` that shares the same parameters -- the
paper's "drop-in hardware replacement" with no retraining.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.arith.fpm import AxFPM, Bfloat16Multiplier, HEAPMultiplier, Multiplier
from repro.nn.approx import ApproxConv2d, ApproxLinear
from repro.nn.functional import conv_output_size
from repro.nn.layers import BatchNorm2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d, Module, ReLU
from repro.nn.network import Sequential
from repro.nn.quantize import QuantConv2d, QuantLinear, QuantReLU
from repro.registry import registry

#: unified registry of model architecture builders (namespace ``"model"``)
MODELS = registry("model")

#: unified registry of hardware variants: factories that turn a trained model
#: into its exact / approximate / bfloat16 deployment (namespace ``"variant"``)
VARIANTS = registry("variant")


def _after_conv(size: int, kernel: int, stride: int = 1, padding: int = 0) -> int:
    return conv_output_size(size, kernel, stride, padding)


def _after_pool(size: int, kernel: int = 2) -> int:
    return size // kernel


def forward_macs(model: Sequential, input_shape: Tuple[int, int, int]) -> int:
    """Multiply-accumulates of one sample's forward pass through ``model``.

    A convolution costs ``out_h * out_w * F * C * kh * kw``, a dense layer
    ``in * out``; the other layers count nothing, and only convolutions and
    max-pooling change the spatial size.
    """
    _, h, w = input_shape
    total = 0
    for layer in model.layers:
        if isinstance(layer, Conv2d):
            k = layer.kernel_size
            h = conv_output_size(h, k, layer.stride, layer.padding)
            w = conv_output_size(w, k, layer.stride, layer.padding)
            total += h * w * layer.out_channels * layer.in_channels * k * k
        elif isinstance(layer, MaxPool2d):
            h = conv_output_size(h, layer.kernel_size, layer.stride, 0)
            w = conv_output_size(w, layer.kernel_size, layer.stride, 0)
        elif isinstance(layer, Linear):
            total += layer.in_features * layer.out_features
    return total


@MODELS.register("lenet5", metadata={"summary": "LeNet-5 digit classifier"})
def build_lenet5(
    input_shape: Tuple[int, int, int] = (1, 16, 16),
    num_classes: int = 10,
    kernel_size: int = 3,
    conv_channels: Tuple[int, int] = (6, 16),
    fc_sizes: Tuple[int, int] = (120, 84),
    dropout: float = 0.25,
    seed: int = 0,
) -> Sequential:
    """LeNet-5 style CNN: conv-pool-conv-pool followed by fully connected layers."""
    c, h, w = input_shape
    rng = np.random.default_rng(seed)
    c1, c2 = conv_channels
    h1 = _after_pool(_after_conv(h, kernel_size))
    w1 = _after_pool(_after_conv(w, kernel_size))
    h2 = _after_pool(_after_conv(h1, kernel_size))
    w2 = _after_pool(_after_conv(w1, kernel_size))
    if h2 < 1 or w2 < 1:
        raise ValueError(f"input {h}x{w} too small for LeNet-5 with kernel {kernel_size}")
    flat = c2 * h2 * w2
    layers: list[Module] = [
        Conv2d(c, c1, kernel_size, rng=rng, name="conv1"),
        ReLU(),
        MaxPool2d(2),
        Conv2d(c1, c2, kernel_size, rng=rng, name="conv2"),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(flat, fc_sizes[0], rng=rng, name="fc1"),
        ReLU(),
    ]
    if dropout > 0:
        layers.append(Dropout(dropout, rng=rng))
    layers += [
        Linear(fc_sizes[0], fc_sizes[1], rng=rng, name="fc2"),
        ReLU(),
        Linear(fc_sizes[1], num_classes, rng=rng, name="fc3"),
    ]
    return Sequential(layers, name="lenet5")


@MODELS.register("alexnet", metadata={"summary": "compact AlexNet object classifier"})
def build_alexnet(
    input_shape: Tuple[int, int, int] = (3, 32, 32),
    num_classes: int = 10,
    conv_channels: Tuple[int, int, int, int, int] = (8, 16, 24, 24, 16),
    fc_sizes: Tuple[int, int] = (128, 64),
    dropout: float = 0.25,
    seed: int = 0,
) -> Sequential:
    """Compact AlexNet: five convolutions, three max-pools, three dense layers."""
    c, h, w = input_shape
    rng = np.random.default_rng(seed)
    c1, c2, c3, c4, c5 = conv_channels
    h_out = _after_pool(_after_pool(_after_pool(h)))
    w_out = _after_pool(_after_pool(_after_pool(w)))
    if h_out < 1 or w_out < 1:
        raise ValueError(f"input {h}x{w} too small for AlexNet (needs three 2x2 pools)")
    flat = c5 * h_out * w_out
    layers: list[Module] = [
        Conv2d(c, c1, 3, padding=1, rng=rng, name="conv1"),
        ReLU(),
        MaxPool2d(2),
        Conv2d(c1, c2, 3, padding=1, rng=rng, name="conv2"),
        ReLU(),
        MaxPool2d(2),
        Conv2d(c2, c3, 3, padding=1, rng=rng, name="conv3"),
        ReLU(),
        Conv2d(c3, c4, 3, padding=1, rng=rng, name="conv4"),
        ReLU(),
        Conv2d(c4, c5, 3, padding=1, rng=rng, name="conv5"),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(flat, fc_sizes[0], rng=rng, name="fc1"),
        ReLU(),
    ]
    if dropout > 0:
        layers.append(Dropout(dropout, rng=rng))
    layers += [
        Linear(fc_sizes[0], fc_sizes[1], rng=rng, name="fc2"),
        ReLU(),
        Linear(fc_sizes[1], num_classes, rng=rng, name="fc3"),
    ]
    return Sequential(layers, name="alexnet")


@MODELS.register("dq_cnn", metadata={"summary": "Defensive Quantization CNN (Appendix B)"})
def build_dq_cnn(
    input_shape: Tuple[int, int, int] = (3, 32, 32),
    num_classes: int = 10,
    bits: int = 4,
    mode: str = "full",
    conv_channels: Sequence[int] = (8, 8, 16, 16, 24, 24),
    fc_sizes: Tuple[int, int] = (64, 32),
    seed: int = 0,
) -> Sequential:
    """Defensive Quantization CNN (Appendix B architecture, DoReFa quantisers).

    Parameters
    ----------
    mode:
        ``"full"`` quantises weights and activations (ConvolutionQuant +
        reluQuant blocks); ``"weight"`` quantises only the weights and keeps
        exact ReLU activations; ``"float"`` builds the same architecture
        without any quantisation (useful as its exact reference).
    """
    if mode not in ("full", "weight", "float"):
        raise ValueError("mode must be 'full', 'weight' or 'float'")
    c, h, w = input_shape
    rng = np.random.default_rng(seed)

    def conv(cin: int, cout: int, name: str) -> Module:
        if mode == "float":
            return Conv2d(cin, cout, 3, padding=1, rng=rng, name=name)
        return QuantConv2d(cin, cout, 3, padding=1, bits=bits, rng=rng, name=name)

    def act() -> Module:
        if mode == "full":
            return QuantReLU(bits=bits)
        return ReLU()

    def dense(fin: int, fout: int, name: str) -> Module:
        if mode == "float":
            return Linear(fin, fout, rng=rng, name=name)
        return QuantLinear(fin, fout, bits=bits, rng=rng, name=name)

    chans = list(conv_channels)
    layers: list[Module] = []
    in_c = c
    size = h
    for block in range(3):
        c_a, c_b = chans[2 * block], chans[2 * block + 1]
        layers += [
            conv(in_c, c_a, f"conv{2 * block + 1}"),
            BatchNorm2d(c_a, name=f"bn{2 * block + 1}"),
            act(),
            conv(c_a, c_b, f"conv{2 * block + 2}"),
            MaxPool2d(2),
            BatchNorm2d(c_b, name=f"bn{2 * block + 2}"),
            act(),
        ]
        in_c = c_b
        size = _after_pool(size)
    flat = in_c * size * size
    layers += [
        Flatten(),
        dense(flat, fc_sizes[0], "fc1"),
        act(),
        dense(fc_sizes[0], fc_sizes[1], "fc2"),
        act(),
        Linear(fc_sizes[1], num_classes, rng=rng, name="fc3"),
    ]
    return Sequential(layers, name=f"dq_cnn_{mode}")


# --------------------------------------------------------------- conversions
def _fresh_stateful_copy(layer: Module) -> Module:
    """Re-instantiate a layer so the converted model owns its forward caches.

    Parameters (and BatchNorm running statistics) are *shared* with the
    original layer -- the converted model uses the very same trained weights --
    but activation caches are per-model so that interleaving forward/backward
    passes of the exact and the approximate model never cross-contaminates.
    """
    if isinstance(layer, ReLU):
        return ReLU()
    if isinstance(layer, Flatten):
        return Flatten()
    if isinstance(layer, MaxPool2d):
        return MaxPool2d(layer.kernel_size, layer.stride)
    if isinstance(layer, Dropout):
        return Dropout(layer.p, rng=layer.rng)
    if isinstance(layer, QuantReLU):
        return QuantReLU(bits=layer.bits)
    if isinstance(layer, BatchNorm2d):
        copy = BatchNorm2d(layer.num_features, layer.momentum, layer.eps)
        copy.gamma = layer.gamma
        copy.beta = layer.beta
        copy.running_mean = layer.running_mean
        copy.running_var = layer.running_var
        return copy
    if isinstance(layer, QuantLinear):
        copy = QuantLinear(layer.in_features, layer.out_features, bits=layer.bits, name=layer.name)
        copy.weight = layer.weight
        copy.bias = layer.bias
        return copy
    if isinstance(layer, Linear) and not isinstance(layer, ApproxLinear):
        copy = Linear(layer.in_features, layer.out_features, name=layer.name)
        copy.weight = layer.weight
        copy.bias = layer.bias
        return copy
    if isinstance(layer, QuantConv2d):
        copy = QuantConv2d(
            layer.in_channels,
            layer.out_channels,
            layer.kernel_size,
            layer.stride,
            layer.padding,
            bits=layer.bits,
            name=layer.name,
        )
        copy.weight = layer.weight
        copy.bias = layer.bias
        return copy
    return layer


def convert_to_approximate(
    model: Sequential,
    multiplier: Optional[Multiplier] = None,
    convert_linear: bool = False,
    batch_chunk: int = 32,
    name_suffix: str = "_approx",
) -> Sequential:
    """Create the Defensive Approximation version of a trained model.

    Every exact :class:`Conv2d` is replaced by an :class:`ApproxConv2d` that
    *shares* the original parameters (no retraining, no copy), exactly as the
    paper deploys DA by swapping the hardware multiplier.  Dense layers are
    left exact by default, matching the paper's implementation which confines
    the approximation to the convolution layers.
    """
    multiplier = multiplier if multiplier is not None else AxFPM()
    converted: list[Module] = []
    for layer in model.layers:
        if type(layer) is Conv2d:
            converted.append(ApproxConv2d.from_exact(layer, multiplier, batch_chunk=batch_chunk))
        elif convert_linear and type(layer) is Linear:
            converted.append(ApproxLinear.from_exact(layer, multiplier, batch_chunk=batch_chunk))
        else:
            converted.append(_fresh_stateful_copy(layer))
    return Sequential(converted, name=model.name + name_suffix)


def convert_to_bfloat16(model: Sequential, convert_linear: bool = False) -> Sequential:
    """Create the bfloat16 variant of a trained model (Section 7.2 baseline)."""
    return convert_to_approximate(
        model,
        multiplier=Bfloat16Multiplier(),
        convert_linear=convert_linear,
        name_suffix="_bf16",
    )


# ----------------------------------------------------------------- variants
# Hardware variants resolve a *trained* exact model into the deployment the
# experiment pipeline names in its specs ("exact", "da", "heap", ...).  Each
# factory shares the trained parameters with the input model.
#
# The ``"approx"`` metadata flag declares whether the variant's forward pass
# executes through the approximate-arithmetic substrate (multiplier models +
# the fused GEMM kernel engine): cell digests use it to decide whether a cell
# depends on the "kernels"/"arith" fingerprint surfaces (docs/caching.md).
VARIANTS.register(
    "exact",
    lambda model: model,
    metadata={"summary": "unmodified float32 model", "approx": False},
)
VARIANTS.register(
    "da",
    lambda model, **kw: convert_to_approximate(model, **kw),
    metadata={"summary": "Defensive Approximation (Ax-FPM convolutions)", "approx": True},
)
VARIANTS.register(
    "heap",
    lambda model, **kw: convert_to_approximate(
        model, multiplier=HEAPMultiplier(), name_suffix="_heap", **kw
    ),
    metadata={"summary": "DA built from the HEAP multiplier", "approx": True},
)
VARIANTS.register(
    "bfloat16",
    lambda model, **kw: convert_to_bfloat16(model, **kw),
    metadata={"summary": "bfloat16-truncated convolutions", "approx": True},
)


def model_variant(model: Sequential, variant: str, **kwargs) -> Sequential:
    """Resolve a trained model into one of its registered hardware variants."""
    return VARIANTS.create(variant, model=model, **kwargs)
