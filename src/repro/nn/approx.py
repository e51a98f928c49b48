"""Approximate layers: convolution and dense layers whose multiplications run
through a hardware multiplier model.

This is the emulation path of Defensive Approximation: the layer keeps the
exact pre-trained weights but every elementwise product of the forward pass is
computed by a :class:`repro.arith.fpm.Multiplier` (Ax-FPM by default).
Additions stay exact, as in the paper (only the multiplier is approximated).

Execution
---------
Both layers drive their multiply-accumulate through the approximate-GEMM
engine (:mod:`repro.arith.kernels`), obtained once per layer via the
capability API :meth:`~repro.arith.fpm.Multiplier.make_gemm_kernel`.  For
LUT-tabulated designs that is one call into the compiled native library per
chunk: it decodes the activations and folds signed-product table entries,
with the weight decomposition cached by the parameter's version counter.
Multipliers without a LUT, and every design where the library is unavailable,
get the reference kernel wrapping plain ``multiply`` -- the same bytes, slower.

Gradients
---------
The approximate datapath is a non-differentiable gate-level circuit.  For
white-box attacks the backward pass uses the exact analytic gradients of the
corresponding exact layer evaluated at the same cached activations
(Backward-Pass Differentiable Approximation, BPDA) -- this is the strongest
practical attacker model and mirrors how the paper's adaptive white-box
attacker differentiates the emulated circuit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arith.fpm import AxFPM, Multiplier
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear, Module, Parameter


class _KernelHolder:
    """Mixin managing a layer's GEMM kernel (rebuilt if the multiplier swaps)."""

    multiplier: Multiplier

    def _kernel(self):
        cached = getattr(self, "_gemm_kernel", None)
        if cached is None or cached.multiplier is not self.multiplier:
            cached = self._gemm_kernel = self.multiplier.make_gemm_kernel()
        return cached

    @property
    def gemm_kernel(self):
        """The layer's approximate-GEMM engine (one per layer, lazily built)."""
        return self._kernel()


def prime_gemm_kernels(model) -> None:
    """Eagerly build the GEMM kernels of a model's approximate layers.

    Kernel construction resolves the multiplier's mantissa LUT and the derived
    signed-product table into their process-level caches; priming a model in a
    pipeline parent before its worker pool forks lets every worker inherit the
    tables copy-on-write instead of re-tabulating the gate-level array.
    """
    for layer in getattr(model, "layers", []):
        if isinstance(layer, _KernelHolder):
            layer.gemm_kernel  # noqa: B018 -- property access builds the kernel


class ApproxConv2d(_KernelHolder, Conv2d):
    """Convolution layer whose multiply-accumulate uses an approximate multiplier.

    Parameters
    ----------
    multiplier:
        Hardware multiplier model.  Defaults to a fresh :class:`AxFPM`.
    batch_chunk:
        Maximum number of images processed per chunk; bounds the memory of
        the kernel's per-chunk working set.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        multiplier: Optional[Multiplier] = None,
        batch_chunk: int = 32,
        rng: Optional[np.random.Generator] = None,
        name: str = "approx_conv",
    ):
        super().__init__(
            in_channels, out_channels, kernel_size, stride, padding, rng=rng, name=name
        )
        self.multiplier = multiplier if multiplier is not None else AxFPM()
        self.batch_chunk = int(batch_chunk)
        self._gemm_kernel = None

    @classmethod
    def from_exact(
        cls, layer: Conv2d, multiplier: Optional[Multiplier] = None, batch_chunk: int = 32
    ) -> "ApproxConv2d":
        """Build an approximate layer sharing the exact layer's trained parameters.

        This is the "drop-in hardware replacement" of the paper: no retraining,
        no fine-tuning, the very same weights.
        """
        approx = cls(
            layer.in_channels,
            layer.out_channels,
            layer.kernel_size,
            layer.stride,
            layer.padding,
            multiplier=multiplier,
            batch_chunk=batch_chunk,
            name=getattr(layer, "name", "approx_conv"),
        )
        approx.weight = layer.weight
        approx.bias = layer.bias
        return approx

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, _, h, w = x.shape
        f = self.out_channels
        k = self.kernel_size
        cols = F.im2col(x, (k, k), self.stride, self.padding)  # (N, K, L)
        # what the inherited backward reads (see F.conv2d_forward)
        self._cache = (x if self.training else cols, x.shape)
        w_mat = self.weight.value.reshape(f, -1)  # (F, K)

        out_h, out_w, l = F.conv_geometry(h, w, k, self.stride, self.padding)
        out = np.empty((n, f, l), dtype=np.float32)
        kernel = self.gemm_kernel
        version = self.weight.version
        chunk = max(1, self.batch_chunk)
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            # the activation patch drives the multiplicand port and the weight
            # drives the multiplier port of the array multiplier; with the
            # AMA5 array this is the operand assignment that keeps the clean
            # accuracy of the approximate classifier closest to the exact one.
            out[start:stop] = kernel(cols[start:stop], w_mat, weight_version=version)
        out += self.bias.value.reshape(1, f, 1)
        return out.reshape(n, f, out_h, out_w).astype(np.float32)

    # backward() is inherited from Conv2d: BPDA through the exact convolution.

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ApproxConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, multiplier={self.multiplier.name})"
        )


class ApproxLinear(_KernelHolder, Linear):
    """Dense layer whose products run through an approximate multiplier.

    The paper confines the approximation to convolution layers; this layer is
    provided for completeness and for the design-space exploration ablations.

    Parameters
    ----------
    batch_chunk:
        Maximum batch rows per kernel call; bounds the reference kernel's
        ``(batch_chunk, out, in)`` products where the compiled one is
        unavailable.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        multiplier: Optional[Multiplier] = None,
        batch_chunk: int = 128,
        rng: Optional[np.random.Generator] = None,
        name: str = "approx_fc",
    ):
        super().__init__(in_features, out_features, rng=rng, name=name)
        self.multiplier = multiplier if multiplier is not None else AxFPM()
        self.batch_chunk = int(batch_chunk)
        self._gemm_kernel = None

    @classmethod
    def from_exact(
        cls,
        layer: Linear,
        multiplier: Optional[Multiplier] = None,
        batch_chunk: int = 128,
    ) -> "ApproxLinear":
        """Build an approximate dense layer sharing the exact layer's parameters."""
        approx = cls(
            layer.in_features,
            layer.out_features,
            multiplier=multiplier,
            batch_chunk=batch_chunk,
            name=getattr(layer, "name", "approx_fc"),
        )
        approx.weight = layer.weight
        approx.bias = layer.bias
        return approx

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        n = x.shape[0]
        out = np.empty((n, self.out_features), dtype=np.float32)
        kernel = self.gemm_kernel
        weight = self.weight.value
        version = self.weight.version
        chunk = max(1, self.batch_chunk)
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            # activations drive the multiplicand port, weights the multiplier
            # port (same assignment as ApproxConv2d); the GEMM contraction is
            # the L=1 case of the conv kernel
            cols = x[start:stop, :, np.newaxis]
            out[start:stop] = kernel(cols, weight, weight_version=version)[:, :, 0]
        return (out + self.bias.value).astype(np.float32)

    # backward() inherited from Linear (BPDA).

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ApproxLinear({self.in_features}, {self.out_features}, "
            f"multiplier={self.multiplier.name})"
        )
