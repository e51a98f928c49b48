"""DoReFa-style k-bit quantisation layers (Defensive Quantization baseline).

The paper compares Defensive Approximation against Defensive Quantization
(Lin et al., ICLR 2019), implemented with the DoReFa-Net quantisation scheme:

* **weight quantisation** -- weights are squashed through ``tanh``, scaled to
  ``[0, 1]``, uniformly quantised to ``k`` bits and rescaled to ``[-1, 1]``;
* **activation quantisation** -- activations are clipped to ``[0, 1]`` and
  uniformly quantised to ``k`` bits.

Training uses the straight-through estimator (the quantiser is treated as the
identity in the backward pass).  Two model variants are exercised by the
benchmarks, matching Table 5 / Appendix B: *weight-only* quantisation and
*full* quantisation (weights + activations).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import native
from repro.nn.layers import Conv2d, Linear, Module, Parameter


def quantize_tensor(x: np.ndarray, bits: int) -> np.ndarray:
    """Uniformly quantise values in ``[0, 1]`` to ``bits`` bits (DoReFa quantiser)."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if bits >= 32:
        return np.asarray(x, dtype=np.float32)
    levels = float((1 << bits) - 1)
    quantised = np.round(np.asarray(x, dtype=np.float32) * levels) / levels
    return quantised.astype(np.float32, copy=False)


def quantize_weights(w: np.ndarray, bits: int) -> np.ndarray:
    """DoReFa weight quantisation to ``bits`` bits, output in ``[-1, 1]``."""
    w = np.asarray(w, dtype=np.float32)
    if bits >= 32:
        return w
    t = np.tanh(w)
    max_abs = np.max(np.abs(t)) + 1e-12
    normalised = t / (2.0 * max_abs) + 0.5
    return (2.0 * quantize_tensor(normalised, bits) - 1.0).astype(np.float32, copy=False)


def quantize_activations(x: np.ndarray, bits: int) -> np.ndarray:
    """DoReFa activation quantisation: clip to ``[0, 1]`` then quantise."""
    clipped = np.clip(np.asarray(x, dtype=np.float32), 0.0, 1.0)
    return quantize_tensor(clipped, bits)


class QuantConv2d(Conv2d):
    """Convolution layer with k-bit quantised weights (straight-through gradients)."""

    def __init__(self, *args, bits: int = 4, **kwargs):
        super().__init__(*args, **kwargs)
        self.bits = bits

    def forward_weight(self) -> np.ndarray:
        return quantize_weights(self.weight.value, self.bits)

    # backward() inherited: straight-through estimator uses the exact-layer
    # gradient formulas with the latent full-precision weights.

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"QuantConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, bits={self.bits})"
        )


class QuantLinear(Linear):
    """Dense layer with k-bit quantised weights (straight-through gradients)."""

    def __init__(self, *args, bits: int = 4, **kwargs):
        super().__init__(*args, **kwargs)
        self.bits = bits

    def forward_weight(self) -> np.ndarray:
        return quantize_weights(self.weight.value, self.bits)

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuantLinear({self.in_features}, {self.out_features}, bits={self.bits})"


class QuantReLU(Module):
    """ReLU followed by k-bit activation quantisation (the ``reluQuant`` block).

    Used by the *fully quantised* Defensive Quantization model: the activation
    is clipped to ``[0, 1]`` and quantised; the backward pass passes gradients
    through wherever the activation was inside the clipping range
    (straight-through estimator).
    """

    def __init__(self, bits: int = 4):
        super().__init__()
        self.bits = bits
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        kernels = native.BACKEND.kernels()
        done = None if kernels is None else kernels.quant_relu(x, self.bits)
        if done is None:
            done = quantize_activations(x, self.bits), (x > 0) & (x < 1)
        out, self._mask = done
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return F.relu_backward(grad_out, self._mask)

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuantReLU(bits={self.bits})"
