"""Unit and property tests for IEEE-754 field manipulation and bfloat16."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.float_format import (
    FLOAT32_FRACTION_BITS,
    bfloat16_truncate,
    compose_float32,
    decompose_float32,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


def test_decompose_simple_values():
    fields = decompose_float32(np.array([1.0, 2.0, -3.0, 0.5], dtype=np.float32))
    np.testing.assert_array_equal(fields.sign, [0, 0, 1, 0])
    np.testing.assert_array_equal(fields.exponent, [0, 1, 1, -1])
    # 1.0 and 2.0 have significand exactly 2**23; 3.0 is 1.5 * 2**1
    assert fields.significand[0] == 1 << 23
    assert fields.significand[2] == 3 << 22


def test_decompose_zero_is_flagged():
    fields = decompose_float32(np.array([0.0, -0.0, 1.0], dtype=np.float32))
    np.testing.assert_array_equal(fields.is_zero, [True, True, False])
    assert fields.significand[0] == 0


def test_decompose_flushes_subnormals_to_zero():
    subnormal = np.float32(1e-45)
    fields = decompose_float32(np.array([subnormal], dtype=np.float32))
    assert bool(fields.is_zero[0])


def test_decompose_reduced_fraction_width_truncates():
    x = np.array([1.9999999], dtype=np.float32)
    full = decompose_float32(x, frac_bits=23)
    reduced = decompose_float32(x, frac_bits=8)
    assert reduced.significand[0] == full.significand[0] >> (23 - 8)


def test_decompose_validates_frac_bits():
    with pytest.raises(ValueError):
        decompose_float32(np.array([1.0]), frac_bits=0)
    with pytest.raises(ValueError):
        decompose_float32(np.array([1.0]), frac_bits=30)


@settings(max_examples=100, deadline=None)
@given(x=finite_floats)
def test_decompose_compose_roundtrip(x):
    arr = np.array([x], dtype=np.float32)
    fields = decompose_float32(arr)
    rebuilt = compose_float32(
        fields.sign, fields.exponent, fields.significand, fields.frac_bits, fields.is_zero
    )
    if abs(float(arr[0])) < float(np.finfo(np.float32).tiny):  # subnormals flush to zero
        assert rebuilt[0] == 0.0
    else:
        np.testing.assert_allclose(rebuilt, arr, rtol=0, atol=0)


@settings(max_examples=100, deadline=None)
@given(x=finite_floats)
def test_bfloat16_truncation_error_is_small_and_toward_zero(x):
    arr = np.array([x], dtype=np.float32)
    truncated = bfloat16_truncate(arr)
    # truncation never increases the magnitude
    assert abs(float(truncated[0])) <= abs(float(arr[0]))
    if abs(float(arr[0])) > 1e-30:  # subnormals may lose all precision
        rel_err = abs(float(truncated[0]) - float(arr[0])) / abs(float(arr[0]))
        assert rel_err < 2 ** -7  # 7 fraction bits remain


def test_bfloat16_preserves_sign_and_special_values():
    x = np.array([-2.5, 0.0, 1.0], dtype=np.float32)
    t = bfloat16_truncate(x)
    assert t[0] < 0
    assert t[1] == 0.0
    assert t[2] == 1.0


def test_bfloat16_output_is_float32_copy():
    x = np.random.default_rng(5).standard_normal((3, 4, 5)).astype(np.float32)
    t = bfloat16_truncate(x)
    assert t.dtype == np.float32 and t.shape == x.shape
    # the high half of every encoding, in memory of its own
    assert np.array_equal(t.view(np.uint32), (x.view(np.uint32) >> 16) << 16)
    assert not np.shares_memory(t, x)
    t[0] = 0.0
    assert np.all(x[0] != 0.0)  # original untouched


def test_constants():
    assert FLOAT32_FRACTION_BITS == 23
