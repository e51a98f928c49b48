"""Approximate-GEMM kernels: the hot loop of the emulated Ax-FPM datapath.

Every attack experiment funnels through one computation: the contraction

    ``out[n, f, l] = sum_k  M(cols[n, k, l], weight[f, k])``

where ``M`` is a hardware multiplier model (:class:`repro.arith.fpm.Multiplier`)
and the sum is the layer's exact accumulation.  Two implementations exist:

* :class:`FallbackGemmKernel`, the reference: ``Multiplier.multiply`` over
  the broadcast ``(N, F, K, L)`` operands and a float32 fold over K.  Every
  multiplier supports it, and every test compares against it;
* :class:`FusedLutGemmKernel`, for LUT-tabulated designs: one call into the
  native library of :mod:`repro.nn.native`.  A **signed-significand product
  table** is precomposed once per design: sign and significand pack into one
  operand code (:func:`repro.arith.float_format.operand_codes`), so one
  lookup returns the already-signed mantissa product, pre-scaled by
  ``2**-2*frac_bits``.  The C loop decodes every activation into its code
  and exponent, and multiplies each table entry by the power of two of the
  exponent sum.  The **weight operand decomposition is cached per kernel**,
  keyed by the layer parameter's version counter
  (:class:`repro.nn.layers.Parameter`), so a layer's constant operand is
  decomposed once per attack run instead of once per forward chunk.

Bit-exactness contract
----------------------
Kernels compute a **strict identity-seeded left fold** over ``k``:
``((0.0 + p[0]) + p[1]) + ...`` in float32, which is exactly what
``products.sum(axis=2, dtype=float32)`` performs over a strided reduction
axis (the pre-existing convolution path), signed zeros included.  The fused
kernel is bit-for-bit identical to :class:`FallbackGemmKernel` for every
input: the product table entries are exact by construction (integers below
``2**24`` scaled by powers of two) and the final scaling multiply is a single
correctly-rounded float32 operation, so it agrees with ``np.ldexp`` even for
results that overflow, underflow or denormalise.  Calls whose exponent sums
could fall outside the provably-safe window (sums beyond float32's scaling
range) run the reference kernel -- parity is never sacrificed for speed.

Obtain kernels through the capability API
:meth:`repro.arith.fpm.Multiplier.make_gemm_kernel`; multipliers without a
LUT (``frac_bits=23`` gate-level simulation, bfloat16, custom models), and
every multiplier on a machine without the native library, receive the
reference kernel.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.arith.float_format import operand_code_side, operand_codes
from repro.counters import ProcessCounters
from repro.obs.trace import TRACER

#: numerics version of the fused GEMM kernel engine.  Bump whenever the
#: *bit patterns* this engine produces change (fold order, rounding window,
#: table composition); cells whose payloads execute through approximate
#: convolutions declare a ``"kernels"`` dependency and re-key on this value
#: (see :mod:`repro.pipeline.fingerprints` and ``docs/caching.md``).
#: Version 1: strict left-fold accumulation over signed-significand product
#: tables (the compiled loop produces the same bits).
KERNEL_NUMERICS_VERSION = 1

#: bias applied to exponent sums when indexing the power-of-two table; large
#: enough that the sum of two biased float32 exponents (plus the inf/NaN
#: sentinel 128) can never index below zero
POW2_BIAS = 300

#: float32 exponent-sum window inside which ``product_table[codes] * 2**e`` is
#: provably a single correctly-rounded operation (2**e exactly representable,
#: down to the smallest subnormal power)
_SAFE_EXP_MIN = -149
_SAFE_EXP_MAX = 127

# --------------------------------------------------------------------- stats
class KernelStats(ProcessCounters):
    """Process-level observability counters for the GEMM kernel engine.

    Monotonic within a process; the pipeline telemetry embeds per-run deltas.
    Counters are advisory only (pool workers keep their own) and are excluded
    from every determinism guarantee.
    """

    _FIELDS = (
        "fused_calls",
        "fallback_calls",
        "unsafe_calls",
        "fused_macs",
        "fallback_macs",
        "weight_cache_hits",
        "weight_cache_misses",
    )


#: the process-wide counter instance
KERNEL_STATS = KernelStats()


# -------------------------------------------------------------- shared tables
_POW2_TABLE: Optional[np.ndarray] = None

#: signed-significand product tables shared across kernel instances, keyed by
#: the multiplier's LUT cache key (same identity as ``fpm._LUT_CACHE``) plus
#: the fraction width; tables are read-only
_PRODUCT_TABLES: Dict[Tuple[Any, int], np.ndarray] = {}


def pow2_table() -> np.ndarray:
    """Flat float32 table ``t[e + POW2_BIAS] = 2.0**e`` for ``|e| <= POW2_BIAS``.

    Entries outside float32's range saturate to ``0.0`` / ``inf``; kernels only
    multiply by entries inside the provably-exact window (the rest are reached
    exclusively by calls already routed to the reference path).
    """
    global _POW2_TABLE
    if _POW2_TABLE is None:
        exponents = np.arange(-POW2_BIAS, POW2_BIAS + 1, dtype=np.float64)
        with np.errstate(over="ignore", under="ignore"):
            table = np.exp2(exponents).astype(np.float32)
        table.setflags(write=False)
        _POW2_TABLE = table
    return _POW2_TABLE


def signed_product_table(mantissa_lut: np.ndarray, frac_bits: int) -> np.ndarray:
    """Precompose the signed float32 mantissa-product table for one design.

    ``table[ca, cb]`` is the float32 value ``(-1)**(sa ^ sb) *
    mantissa_lut[sig_a, sig_b] * 2**(-2*frac_bits)`` for the operand codes of
    :func:`operand_codes`; rows and columns of the zero code are ``+0.0``
    (the hardware model's unsigned zero flush).  Every entry is exact: LUT
    products carry at most ``2*frac_bits + 3 <= 23`` bits and the scaling is a
    power of two, so the fused kernel's later single multiply by ``2**e``
    rounds exactly once -- precisely like the reference ``np.ldexp``.
    """
    half = 1 << frac_bits
    side = operand_code_side(frac_bits)
    sigs = np.arange(half, 2 * half)
    magnitude = (
        mantissa_lut[np.ix_(sigs, sigs)].astype(np.float64) * 2.0 ** (-2 * frac_bits)
    ).astype(np.float32)
    table = np.zeros((side, side), dtype=np.float32)
    table[0:half, 0:half] = magnitude  # (+, +)
    table[0:half, half : 2 * half] = -magnitude  # (+, -) -> negative product
    table[half : 2 * half, 0:half] = -magnitude
    table[half : 2 * half, half : 2 * half] = magnitude
    table.setflags(write=False)
    return table


def _resolve_product_table(multiplier) -> np.ndarray:
    """The multiplier's shared signed product table (built once per design)."""
    frac_bits = multiplier.frac_bits
    cache_key = multiplier._lut_cache_key()
    if cache_key is not None:
        key = (cache_key, frac_bits)
        table = _PRODUCT_TABLES.get(key)
        if table is None:
            with TRACER.span(
                "kernel.product_table",
                cat="kernel",
                multiplier=getattr(multiplier, "name", "?"),
                frac_bits=frac_bits,
            ):
                table = _PRODUCT_TABLES[key] = signed_product_table(
                    multiplier._get_lut(), frac_bits
                )
        return table
    return signed_product_table(multiplier._get_lut(), frac_bits)


# ------------------------------------------------------------------- kernels
class GemmKernel:
    """One layer's approximate-GEMM engine.

    Calling the kernel contracts ``cols`` of shape ``(N, K, L)`` with
    ``weight`` of shape ``(F, K)`` into ``(N, F, L)`` float32: every
    elementwise product runs through the owning hardware multiplier model and
    the K axis is accumulated as a strict float32 left fold.

    ``weight_version`` is an opaque token identifying the weight *content*
    (pass :attr:`repro.nn.layers.Parameter.version`); while it is unchanged
    the kernel may reuse any per-weight precomputation.
    """

    #: whether this kernel uses the fused LUT datapath
    fused = False

    def __init__(self, multiplier) -> None:
        self.multiplier = multiplier

    def __call__(
        self,
        cols: np.ndarray,
        weight: np.ndarray,
        weight_version: Optional[Any] = None,
    ) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({getattr(self.multiplier, 'name', self.multiplier)!r})"


def _left_fold_k(products: np.ndarray) -> np.ndarray:
    """Strict sequential float32 fold of ``(N, F, K, L)`` products over K.

    Seeded with the additive identity ``+0.0`` -- exactly how numpy's reduce
    machinery folds a strided axis (``+0.0 + -0.0`` is ``+0.0``, so an
    all-negative-zero lane comes out positive there too).
    """
    out = np.zeros(
        (products.shape[0], products.shape[1], products.shape[3]), dtype=np.float32
    )
    for k in range(products.shape[2]):
        np.add(out, products[:, :, k, :], out=out)
    return out


class FallbackGemmKernel(GemmKernel):
    """Reference engine wrapping ``Multiplier.multiply`` -- the pre-kernel path.

    Used for multipliers without a fused implementation (gate-level
    ``frac_bits=23`` simulation, bfloat16, exact, custom models) and as the
    parity-preserving escape hatch of the fused kernel.  For spatial extents
    ``L > 1`` the reduction defers to ``products.sum(axis=2)`` -- numpy's
    strided-axis reduce is the same sequential fold, at C speed.
    """

    def __call__(
        self,
        cols: np.ndarray,
        weight: np.ndarray,
        weight_version: Optional[Any] = None,
    ) -> np.ndarray:
        KERNEL_STATS.fallback_calls += 1
        n, k, l = cols.shape
        KERNEL_STATS.fallback_macs += n * weight.shape[0] * k * l
        products = self.multiplier.multiply(
            cols[:, np.newaxis, :, :], weight[np.newaxis, :, :, np.newaxis]
        )
        if products.shape[3] > 1:
            return products.sum(axis=2, dtype=np.float32)
        return _left_fold_k(products)


class FusedLutGemmKernel(GemmKernel):
    """Compiled LUT engine for :class:`repro.arith.fpm.ApproxFPM` multipliers.

    One call of the native library's ``repro_lut_gemm``
    (:meth:`repro.nn.native.Kernels.lut_gemm`): it decodes every activation
    into its operand code and exponent, and folds
    ``table[code_a, code_w] * 2**(exp_a + exp_w)`` over K into the output,
    bit-identical to :class:`FallbackGemmKernel`.  The weight operand's codes
    and exponents are decoded here, with numpy, once per weight version.  A
    call whose exponent sums can leave the exact window runs the reference
    kernel instead (counted in ``unsafe_calls``).

    Built by :meth:`repro.arith.fpm.ApproxFPM.make_gemm_kernel` only where the
    native library loaded; constructing one without it raises
    :class:`~repro.nn.native.NativeUnavailable`.
    """

    fused = True

    def __init__(self, multiplier) -> None:
        super().__init__(multiplier)
        # chaos point: a kernel whose table build dies (OOM, bad codegen in a
        # real accelerator stack) raises here once per process -- the
        # engine's shard retry recovers it, in the shard's warm-up or its
        # compute (the injector's once-per-key guard lets the retry through)
        from repro.faults import FAULTS
        from repro.nn import native

        FAULTS.maybe_raise("kernel.build_fail", getattr(multiplier, "name", "?"))
        self._native = native.BACKEND.kernels()
        if self._native is None:
            raise native.NativeUnavailable("the fused GEMM needs the native library")
        self.frac_bits = int(multiplier.frac_bits)
        self._product_table = _resolve_product_table(multiplier)
        self._pow2 = pow2_table()
        self._fallback = FallbackGemmKernel(multiplier)
        #: ``(version, shape, codes, exponents)`` of the last weight, codes and
        #: exponents ``(K, F)``; replaced whole, so a reader sees one weight
        self._prepared: Optional[Tuple[Any, Tuple[int, ...], np.ndarray, np.ndarray]] = None

    def _prepare_weights(self, weight: np.ndarray, version: Optional[Any]):
        """``(codes, exponents)`` of ``weight``, each ``(K, F)``, cached per version."""
        prepared = self._prepared
        if (
            version is not None
            and prepared is not None
            and prepared[0] == version
            and prepared[1] == weight.shape
        ):
            KERNEL_STATS.weight_cache_hits += 1
            return prepared[2:]
        KERNEL_STATS.weight_cache_misses += 1
        with TRACER.span(
            "kernel.prepare_weights",
            cat="kernel",
            multiplier=getattr(self.multiplier, "name", "?"),
            shape=list(weight.shape),
        ):
            codes, exponents = operand_codes(weight, self.frac_bits)
            prepared = (
                version,
                weight.shape,
                np.ascontiguousarray(codes.T),
                np.ascontiguousarray(exponents.T),
            )
        self._prepared = prepared
        return prepared[2:]

    def __call__(
        self,
        cols: np.ndarray,
        weight: np.ndarray,
        weight_version: Optional[Any] = None,
    ) -> np.ndarray:
        cols = np.asarray(cols, dtype=np.float32)
        weight = np.asarray(weight, dtype=np.float32)
        n, k, l = cols.shape
        f = weight.shape[0]
        if n == 0 or f == 0 or l == 0:
            return np.zeros((n, f, l), dtype=np.float32)
        codes, exponents = self._prepare_weights(weight, weight_version)
        out = self._native.lut_gemm(
            cols,
            codes,
            exponents,
            self._product_table,
            self.frac_bits,
            self._pow2,
            POW2_BIAS,
            (_SAFE_EXP_MIN, _SAFE_EXP_MAX),
        )
        if out is None:
            KERNEL_STATS.unsafe_calls += 1
            return self._fallback(cols, weight)
        KERNEL_STATS.fused_calls += 1
        KERNEL_STATS.fused_macs += n * f * k * l
        return out
