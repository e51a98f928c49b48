"""Floating point multipliers: exact, Ax-FPM, HEAP and Bfloat16.

The central hardware artefact of the paper is the **Ax-FPM**: an IEEE-754
single precision multiplier whose mantissa multiplier is an array multiplier
built entirely from AMA5 approximate full adders.  The exponent adder and the
sign logic stay exact -- errors in the exponent would destroy the network (the
paper cites reliability studies to justify confining the approximation to the
mantissa).

All multipliers expose a single vectorised entry point,
``multiply(a, b) -> float32 ndarray``, so that convolution and dense layers can
be re-targeted to any of them by dependency injection
(:class:`repro.nn.approx.ApproxConv2d`, :class:`repro.core.defense.DefensiveApproximation`).

Emulation precision
-------------------
Simulating the full 23-bit mantissa datapath gate-by-gate for every
multiply-accumulate of a CNN is what limited the original authors to multi-day
white-box runs.  We keep the gate-level model but make the *emulated fraction
width* a parameter (default 8 bits).  For widths up to
:data:`LUT_MAX_FRAC_BITS` the gate-level array is exhaustively tabulated once
and the emulation becomes a table lookup, which preserves the exact cell-level
error behaviour at that width while making end-to-end attack experiments run in
minutes.  ``frac_bits=23`` recovers the paper's full-width datapath (no LUT).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

import numpy as np

from repro.arith.adders import AdderCell
from repro.arith.array_multiplier import (
    ArrayMultiplier,
    CellPolicy,
    HeterogeneousCellPolicy,
    UniformCellPolicy,
)
from repro.arith.float_format import bfloat16_truncate, compose_float32, decompose_float32
from repro.registry import registry

#: unified registry of multiplier hardware models (namespace ``"multiplier"``)
MULTIPLIERS = registry("multiplier")

#: widest fraction for which an exhaustive mantissa LUT is built automatically
LUT_MAX_FRAC_BITS = 10

#: process-level LUT memo, keyed by the mantissa array's configuration.
#: Every multiplier instance of the same design shares one table, so the
#: exhaustive gate-level tabulation runs once per process -- pipeline workers
#: rebuild it on first use (or inherit it copy-on-write under ``fork``)
#: instead of once per resolved variant / noise-profile cell.
_LUT_CACHE: Dict[Tuple[str, int, str], np.ndarray] = {}


class Multiplier(ABC):
    """Common interface of all scalar-multiplier hardware models."""

    #: short identifier used in registries, reports and benchmark tables
    name: str = "multiplier"

    @abstractmethod
    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise product of ``a`` and ``b`` under this hardware model."""

    def make_gemm_kernel(self):
        """A fresh GEMM engine for one layer (see :mod:`repro.arith.kernels`).

        The base implementation wraps :meth:`multiply` in the generic
        :class:`~repro.arith.kernels.FallbackGemmKernel`, so every multiplier
        -- including custom ones -- supports the capability; designs with an
        exhaustive mantissa LUT override this with the fused engine.
        """
        from repro.arith.kernels import FallbackGemmKernel
        from repro.obs.trace import TRACER

        with TRACER.span(
            "kernel.build", cat="kernel", strategy="reference-fallback", multiplier=self.name
        ):
            return FallbackGemmKernel(self)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.multiply(a, b)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


@MULTIPLIERS.register("exact", metadata={"summary": "IEEE-754 float32 reference"})
class ExactMultiplier(Multiplier):
    """Reference IEEE-754 single precision multiplier (what PyTorch would do)."""

    name = "exact"

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (np.asarray(a, dtype=np.float32) * np.asarray(b, dtype=np.float32)).astype(
            np.float32
        )


@MULTIPLIERS.register("bfloat16", metadata={"summary": "bfloat16-truncated operands"})
class Bfloat16Multiplier(Multiplier):
    """Multiplier operating on bfloat16-truncated operands (Section 7.2).

    Both operands are truncated to bfloat16 (1 sign, 8 exponent, 7 fraction
    bits) before an exact multiplication.  The resulting noise is small, mostly
    negative and input-independent (Figure 13), which is why it provides no
    robustness benefit.
    """

    name = "bfloat16"

    def __init__(self, truncate_output: bool = False):
        self.truncate_output = truncate_output

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        product = bfloat16_truncate(a) * bfloat16_truncate(b)
        if self.truncate_output:
            product = bfloat16_truncate(product)
        return product.astype(np.float32, copy=False)


class ApproxFPM(Multiplier):
    """Floating point multiplier with a gate-level (approximate) mantissa array.

    Parameters
    ----------
    cells:
        Adder cell (name or instance) used uniformly in the mantissa array, or
        a :class:`~repro.arith.array_multiplier.CellPolicy` for heterogeneous
        designs.
    frac_bits:
        Number of fraction bits of the emulated mantissa datapath (1..23).
    port_a:
        Cell port wiring, forwarded to :class:`ArrayMultiplier`.
    use_lut:
        Force LUT acceleration on/off.  Defaults to on for
        ``frac_bits <= LUT_MAX_FRAC_BITS``.
    """

    name = "approx-fpm"

    def __init__(
        self,
        cells="ama5",
        frac_bits: int = 8,
        port_a: str = "partial_product",
        use_lut: Optional[bool] = None,
    ):
        self.frac_bits = int(frac_bits)
        if not 1 <= self.frac_bits <= 23:
            raise ValueError("frac_bits must be in [1, 23]")
        self.mantissa_multiplier = ArrayMultiplier(
            n_bits=self.frac_bits + 1, cells=cells, port_a=port_a
        )
        if use_lut is None:
            use_lut = self.frac_bits <= LUT_MAX_FRAC_BITS
        self.use_lut = bool(use_lut)
        self._lut: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ API
    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        # Decompose the operands in their *own* (possibly smaller, broadcastable)
        # shapes; the LUT fancy-indexing / the gate-level simulator broadcast the
        # significand pair, so the full-size operand tensors are never
        # materialised.  This matters because the approximate convolution feeds
        # a (1, F, K, 1) weight tensor against a (N, 1, K, L) patch tensor.
        fa = decompose_float32(a, frac_bits=self.frac_bits)
        fb = decompose_float32(b, frac_bits=self.frac_bits)

        sig_product = self._mantissa_product(fa.significand, fb.significand)
        sign = fa.sign ^ fb.sign
        exponent = fa.exponent + fb.exponent - 2 * self.frac_bits
        is_zero = fa.is_zero | fb.is_zero

        # assemble: value = +/- significand_product * 2**exponent, flushing
        # zero-operand products (and exponent underflow) to zero.
        magnitude = np.ldexp(sig_product.astype(np.float32), exponent)
        result = np.where(sign.astype(bool), -magnitude, magnitude)
        result = np.where(is_zero, np.float32(0.0), result)
        return result.astype(np.float32)

    def make_gemm_kernel(self):
        """The compiled LUT-driven GEMM engine when this design is tabulated.

        Falls back to the generic multiply-wrapping kernel for widths beyond
        :data:`LUT_MAX_FRAC_BITS` (gate-level simulation stays authoritative)
        and where the native library is unavailable (no ``cc``, a failed
        build, or ``kernel.build_fail`` at ``native:<digest>``): the same
        bytes, slower.
        """
        from repro.nn import native

        if not self.use_lut or native.BACKEND.kernels() is None:
            return super().make_gemm_kernel()
        from repro.arith.kernels import FusedLutGemmKernel
        from repro.obs.trace import TRACER

        with TRACER.span(
            "kernel.build", cat="kernel", strategy="fused-lut", multiplier=self.name
        ):
            return FusedLutGemmKernel(self)

    # ------------------------------------------------------------ internals
    def _mantissa_product(self, sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
        if self.use_lut:
            lut = self._get_lut()
            return lut[sa.astype(np.intp), sb.astype(np.intp)]
        sa_b, sb_b = np.broadcast_arrays(sa, sb)
        return self.mantissa_multiplier.multiply(sa_b, sb_b)

    def _lut_cache_key(self) -> Optional[Tuple[str, int, str]]:
        """Process-wide identity of this design's exhaustive mantissa LUT.

        ``None`` for custom :class:`CellPolicy` subclasses: only the built-in
        policies have parameter-complete ``describe()`` strings, so anything
        else gets per-instance tables instead of (possibly wrong) shared ones.
        The fused GEMM kernels key their derived signed-product tables by the
        same identity.
        """
        policy = self.mantissa_multiplier.policy
        if type(policy) not in (UniformCellPolicy, HeterogeneousCellPolicy):
            return None
        return (policy.describe(), self.mantissa_multiplier.n_bits, self.mantissa_multiplier.port_a)

    def _get_lut(self) -> np.ndarray:
        if self._lut is None:
            key = self._lut_cache_key()
            if key is None:
                self._lut = self.mantissa_multiplier.build_lut()
                return self._lut
            lut = _LUT_CACHE.get(key)
            if lut is None:
                lut = self.mantissa_multiplier.build_lut()
                lut.setflags(write=False)  # shared across instances
                _LUT_CACHE[key] = lut
            self._lut = lut
        return self._lut

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(frac_bits={self.frac_bits}, "
            f"cells={self.mantissa_multiplier.policy.describe()}, "
            f"port_a={self.mantissa_multiplier.port_a!r})"
        )


@MULTIPLIERS.register("axfpm", metadata={"summary": "AMA5 mantissa array (the paper's Ax-FPM)"})
class AxFPM(ApproxFPM):
    """The paper's approximate floating point multiplier.

    Every cell of the mantissa array multiplier is an AMA5 approximate mirror
    adder (``Sum = B``, ``Cout = A``).  With the default wiring the injected
    noise reproduces the three observations of Figure 3: it is data-dependent
    and discontinuous, it inflates the magnitude of the product in the vast
    majority of cases, and it grows with the magnitude of the operands.
    """

    name = "axfpm"

    def __init__(self, frac_bits: int = 8, use_lut: Optional[bool] = None):
        super().__init__(
            cells="ama5", frac_bits=frac_bits, port_a="partial_product", use_lut=use_lut
        )


@MULTIPLIERS.register("heap", metadata={"summary": "heterogeneous AMA3/exact mantissa array"})
class HEAPMultiplier(ApproxFPM):
    """HEAP-style heterogeneous approximate floating point multiplier.

    The original HEAP design (Guesmi et al., RSP 2019) selects a combination of
    approximate full adders that minimises accuracy loss.  We model it as an
    array whose low-significance columns use AMA3 cells while the
    high-significance columns stay exact.  The default configuration is
    calibrated so that the error profile matches the shape the paper reports
    (Figure 15 / Table 8): roughly a third the relative error of Ax-FPM, far
    weaker magnitude inflation, and weaker data dependence.
    """

    name = "heap"

    def __init__(
        self,
        frac_bits: int = 8,
        approx_fraction: float = 0.8,
        approx_cell="ama3",
        use_lut: Optional[bool] = None,
    ):
        policy = HeterogeneousCellPolicy(
            approx_cell=approx_cell, exact_cell="exact", exact_above_weight=approx_fraction
        )
        super().__init__(
            cells=policy, frac_bits=frac_bits, port_a="partial_product", use_lut=use_lut
        )
        self.approx_fraction = approx_fraction


def list_multipliers() -> list:
    """Names of all registered multipliers."""
    return MULTIPLIERS.names()


def get_multiplier(name: str, **kwargs) -> Multiplier:
    """Instantiate a multiplier by name (shim over the ``"multiplier"`` registry)."""
    return MULTIPLIERS.create(name, **kwargs)
