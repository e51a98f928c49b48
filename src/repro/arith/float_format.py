"""IEEE-754 single precision field manipulation and bfloat16 helpers.

The floating point multipliers in :mod:`repro.arith.fpm` decompose float32
operands into sign / exponent / significand fields, run the (approximate)
significand multiplication through the gate-level array multiplier, and
re-assemble the result.  This module provides the field codec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: number of explicit fraction bits in IEEE-754 single precision
FLOAT32_FRACTION_BITS = 23
#: exponent bias of IEEE-754 single precision
FLOAT32_BIAS = 127


@dataclass
class FloatFields:
    """Decomposed float32 values.

    Attributes
    ----------
    sign:
        0 for positive, 1 for negative (``int8``).
    exponent:
        Unbiased exponent (``int32``).  Zeros and subnormals are reported with
        the exponent they would have after flushing to zero (see ``is_zero``).
    significand:
        Integer significand including the implicit leading one, i.e. a value in
        ``[2**frac_bits, 2**(frac_bits+1))`` for normal numbers and 0 for
        zeros/subnormals (``uint64``).
    frac_bits:
        Number of fraction bits retained in ``significand``.
    is_zero:
        Boolean mask of values treated as zero (true zeros and subnormals,
        which the hardware model flushes to zero).
    """

    sign: np.ndarray
    exponent: np.ndarray
    significand: np.ndarray
    frac_bits: int
    is_zero: np.ndarray


def decompose_float32(x: np.ndarray, frac_bits: int = FLOAT32_FRACTION_BITS) -> FloatFields:
    """Split float32 values into sign / exponent / significand fields.

    Parameters
    ----------
    x:
        Input array (converted to float32).
    frac_bits:
        How many fraction bits to keep in the significand.  Values below 23
        model a reduced-precision mantissa datapath: the fraction is truncated
        (as the hardware would do by simply not wiring the low bits).
    """
    if not 1 <= frac_bits <= FLOAT32_FRACTION_BITS:
        raise ValueError("frac_bits must be in [1, 23]")
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    sign = ((bits >> np.uint32(31)) & np.uint32(1)).astype(np.int8)
    raw_exp = ((bits >> np.uint32(23)) & np.uint32(0xFF)).astype(np.int32)
    fraction = (bits & np.uint32(0x7FFFFF)).astype(np.uint64)

    is_zero = raw_exp == 0  # true zeros and subnormals are flushed to zero
    exponent = raw_exp - FLOAT32_BIAS

    drop = FLOAT32_FRACTION_BITS - frac_bits
    fraction_trunc = fraction >> np.uint64(drop)
    implicit_one = np.uint64(1) << np.uint64(frac_bits)
    significand = np.where(is_zero, np.uint64(0), fraction_trunc | implicit_one)
    exponent = np.where(is_zero, 0, exponent)
    return FloatFields(
        sign=sign,
        exponent=exponent.astype(np.int32),
        significand=significand.astype(np.uint64),
        frac_bits=frac_bits,
        is_zero=is_zero,
    )


def compose_float32(
    sign: np.ndarray,
    exponent: np.ndarray,
    significand: np.ndarray,
    frac_bits: int,
    is_zero: np.ndarray,
) -> np.ndarray:
    """Re-assemble float32 values from fields produced by a multiplier datapath.

    ``significand`` is interpreted as an integer scaled by ``2**-frac_bits``
    (so normal values lie in ``[1, 2)`` after scaling).  Values flagged in
    ``is_zero`` come out as (signed) zero.  Exponent overflow saturates to
    +/-inf and underflow flushes to zero, mirroring a simple hardware datapath
    without subnormal support.
    """
    sig = significand.astype(np.float64) * (2.0 ** -frac_bits)
    value = sig * np.exp2(exponent.astype(np.float64))
    value = np.where(sign.astype(bool), -value, value)
    value = np.where(is_zero, 0.0, value)
    return value.astype(np.float32)


def operand_code_side(frac_bits: int) -> int:
    """Number of distinct operand codes produced by :func:`operand_codes`."""
    return 2 * (1 << frac_bits) + 1


def operand_codes(x: np.ndarray, frac_bits: int) -> "tuple[np.ndarray, np.ndarray]":
    """Pack sign and significand into a single per-operand gather code.

    The fused GEMM kernels (:mod:`repro.arith.kernels`) index their
    precomposed signed-significand product tables with these codes, so one
    gather returns the already-signed float32 mantissa product.  The layout
    for ``frac_bits = f`` (``H = 2**f``):

    * ``[0, H)``      -- positive normals, ``significand - H``;
    * ``[H, 2*H)``    -- negative normals, ``(significand - H) | H``;
    * ``2*H``         -- all zeros (and flushed subnormals), sign discarded,
      matching the hardware model's unsigned zero flush.

    Returns ``(codes, exponents)`` as ``int32`` arrays of ``x``'s shape;
    exponents are the unbiased values from :func:`decompose_float32` (0 for
    zeros, 128 for inf/NaN encodings).
    """
    fields = decompose_float32(x, frac_bits=frac_bits)
    half = np.int32(1 << frac_bits)
    codes = (fields.significand.astype(np.int32) - half) | (
        fields.sign.astype(np.int32) << np.int32(frac_bits)
    )
    codes = np.where(fields.is_zero, np.int32(2) * half, codes)
    return codes.astype(np.int32, copy=False), fields.exponent.astype(np.int32, copy=False)


def bfloat16_truncate(x: np.ndarray) -> np.ndarray:
    """Truncate float32 values to the bfloat16 format (1 sign, 8 exp, 7 frac).

    The low 16 bits of the float32 encoding are simply dropped, which is the
    cheapest hardware realisation and the one the paper contrasts against
    (Figure 13: the resulting noise is small, mostly negative and
    input-independent).  The result is returned as float32 for convenience.
    """
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    truncated = bits & np.uint32(0xFFFF0000)
    return truncated.view(np.float32)
