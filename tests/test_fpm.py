"""Unit and property tests for the floating point multiplier models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.array_multiplier import ArrayMultiplier, UniformCellPolicy
from repro.arith.fpm import (
    ApproxFPM,
    AxFPM,
    Bfloat16Multiplier,
    ExactMultiplier,
    HEAPMultiplier,
    get_multiplier,
    lut_cache_path,
)

operands = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=32)


def test_exact_multiplier_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.uniform(-10, 10, 1000).astype(np.float32)
    b = rng.uniform(-10, 10, 1000).astype(np.float32)
    np.testing.assert_array_equal(ExactMultiplier().multiply(a, b), a * b)


def test_axfpm_zero_handling():
    ax = AxFPM(frac_bits=6)
    a = np.array([0.0, 1.5, 0.0, -2.0], dtype=np.float32)
    b = np.array([3.0, 0.0, 0.0, 0.5], dtype=np.float32)
    out = ax.multiply(a, b)
    assert out[0] == 0.0 and out[1] == 0.0 and out[2] == 0.0
    assert out[3] != 0.0


def test_axfpm_sign_follows_operands():
    ax = AxFPM(frac_bits=8)
    rng = np.random.default_rng(1)
    a = rng.uniform(0.1, 1.0, 500).astype(np.float32)
    b = rng.uniform(0.1, 1.0, 500).astype(np.float32)
    assert np.all(ax.multiply(a, b) > 0)
    assert np.all(ax.multiply(-a, b) < 0)
    assert np.all(ax.multiply(-a, -b) > 0)


def test_axfpm_inflates_magnitude_in_most_cases():
    """Figure 3 observation (ii): ~96 % of approximate products are larger in
    magnitude than the exact products."""
    ax = AxFPM(frac_bits=8)
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, 20000).astype(np.float32)
    b = rng.uniform(-1, 1, 20000).astype(np.float32)
    exact = a * b
    approx = ax.multiply(a, b)
    nonzero = np.abs(exact) > 1e-9
    inflated = np.abs(approx[nonzero]) > np.abs(exact[nonzero])
    assert inflated.mean() > 0.9


def test_axfpm_error_grows_with_magnitude():
    """Figure 3 observation (iii): larger operands produce larger errors."""
    ax = AxFPM(frac_bits=8)
    rng = np.random.default_rng(3)
    small_a = rng.uniform(0.01, 0.1, 5000).astype(np.float32)
    small_b = rng.uniform(0.01, 0.1, 5000).astype(np.float32)
    big_a = rng.uniform(0.5, 1.0, 5000).astype(np.float32)
    big_b = rng.uniform(0.5, 1.0, 5000).astype(np.float32)
    err_small = np.abs(ax.multiply(small_a, small_b) - small_a * small_b).mean()
    err_big = np.abs(ax.multiply(big_a, big_b) - big_a * big_b).mean()
    assert err_big > err_small


def test_axfpm_relative_error_is_bounded():
    """The AMA5 array never more than doubles / never flips the product."""
    ax = AxFPM(frac_bits=8)
    rng = np.random.default_rng(4)
    a = rng.uniform(0.05, 1.0, 10000).astype(np.float32)
    b = rng.uniform(0.05, 1.0, 10000).astype(np.float32)
    ratio = ax.multiply(a, b) / (a * b)
    assert np.all(ratio > 0.45)
    assert np.all(ratio < 2.6)


@settings(max_examples=80, deadline=None)
@given(a=operands, b=operands)
def test_axfpm_property_sign_and_boundedness(a, b):
    ax = AxFPM(frac_bits=6)
    result = float(ax.multiply(np.array([a], dtype=np.float32), np.array([b], dtype=np.float32))[0])
    exact = float(np.float32(a) * np.float32(b))
    if exact == 0.0 or abs(exact) < 1e-30:
        assert result == 0.0 or abs(result) <= 4 * abs(exact) + 1e-30
    else:
        assert np.sign(result) == np.sign(exact)
        assert abs(result) <= 4 * abs(exact)


def test_axfpm_is_deterministic():
    ax = AxFPM(frac_bits=8)
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, 100).astype(np.float32)
    b = rng.uniform(-1, 1, 100).astype(np.float32)
    np.testing.assert_array_equal(ax.multiply(a, b), ax.multiply(a, b))


def test_lut_and_direct_simulation_agree():
    rng = np.random.default_rng(6)
    a = rng.uniform(-1, 1, 200).astype(np.float32)
    b = rng.uniform(-1, 1, 200).astype(np.float32)
    with_lut = AxFPM(frac_bits=6, use_lut=True).multiply(a, b)
    without_lut = AxFPM(frac_bits=6, use_lut=False).multiply(a, b)
    np.testing.assert_array_equal(with_lut, without_lut)


def test_approxfpm_with_exact_cells_is_nearly_exact():
    """With exact adder cells the only error left is the fraction truncation."""
    fpm = ApproxFPM(cells="exact", frac_bits=10)
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, 1000).astype(np.float32)
    b = rng.uniform(-1, 1, 1000).astype(np.float32)
    np.testing.assert_allclose(fpm.multiply(a, b), a * b, rtol=4e-3, atol=1e-7)


def test_heap_error_is_smaller_than_axfpm():
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, 5000).astype(np.float32)
    b = rng.uniform(-1, 1, 5000).astype(np.float32)
    exact = a * b
    ax_err = np.abs(AxFPM(frac_bits=8).multiply(a, b) - exact).mean()
    heap_err = np.abs(HEAPMultiplier(frac_bits=8).multiply(a, b) - exact).mean()
    assert 0 < heap_err < ax_err


def test_bfloat16_noise_is_small_and_deflating_for_positive_operands():
    rng = np.random.default_rng(9)
    a = rng.uniform(0.0, 1.0, 5000).astype(np.float32)
    b = rng.uniform(0.0, 1.0, 5000).astype(np.float32)
    approx = Bfloat16Multiplier().multiply(a, b)
    errors = approx - a * b
    assert np.abs(errors).max() < 0.02
    assert np.mean(errors <= 0) > 0.95


@pytest.mark.parametrize("truncate_output", [False, True])
def test_bfloat16_product_keeps_its_bits_and_shares_no_memory(truncate_output):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 1, 5, 2)).astype(np.float32)
    b = rng.standard_normal((1, 4, 5, 1)).astype(np.float32)

    def truncate(x):
        return ((x.view(np.uint32) >> 16) << 16).view(np.float32)

    expected = truncate(a) * truncate(b)
    if truncate_output:
        expected = truncate(expected)
    product = Bfloat16Multiplier(truncate_output=truncate_output).multiply(a, b)
    assert product.dtype == np.float32 and product.shape == (3, 4, 5, 2)
    assert product.tobytes() == expected.tobytes()
    assert not np.shares_memory(product, a) and not np.shares_memory(product, b)


def test_broadcasting_through_the_multiplier():
    ax = AxFPM(frac_bits=8)
    a = np.linspace(0.1, 1.0, 5, dtype=np.float32).reshape(5, 1)
    b = np.linspace(0.1, 1.0, 3, dtype=np.float32).reshape(1, 3)
    out = ax.multiply(a, b)
    assert out.shape == (5, 3)


def test_frac_bits_validation():
    with pytest.raises(ValueError):
        AxFPM(frac_bits=0)
    with pytest.raises(ValueError):
        AxFPM(frac_bits=24)


def test_multiplier_registry():
    assert isinstance(get_multiplier("exact"), ExactMultiplier)
    assert isinstance(get_multiplier("axfpm", frac_bits=6), AxFPM)
    assert isinstance(get_multiplier("heap"), HEAPMultiplier)
    assert isinstance(get_multiplier("bfloat16"), Bfloat16Multiplier)
    with pytest.raises(KeyError):
        get_multiplier("unknown")


def test_callable_interface():
    ax = AxFPM(frac_bits=6)
    a = np.array([0.5], dtype=np.float32)
    b = np.array([0.5], dtype=np.float32)
    np.testing.assert_array_equal(ax(a, b), ax.multiply(a, b))


# ------------------------------------------------ mantissa tables on disk
@pytest.fixture()
def table_cache(tmp_path, monkeypatch):
    """A private, empty ``tables/`` cache and empty in-process table memos."""
    import repro.arith.fpm as fpm
    import repro.arith.kernels as kernels

    monkeypatch.setenv("REPRO_DA_CACHE", str(tmp_path))
    monkeypatch.setattr(fpm, "_LUT_CACHE", {})
    monkeypatch.setattr(kernels, "_PRODUCT_TABLES", {})
    return tmp_path / "tables"


def _forget_tables():
    """Drop the in-process memos, as a fresh process starts without them."""
    import repro.arith.fpm as fpm
    import repro.arith.kernels as kernels

    fpm._LUT_CACHE.clear()
    kernels._PRODUCT_TABLES.clear()


@pytest.mark.parametrize("design", [AxFPM, HEAPMultiplier])
def test_a_read_back_table_equals_a_built_one_byte_for_byte(table_cache, design):
    built = design()._get_lut()
    (path,) = table_cache.glob("*.npy")
    assert path == lut_cache_path(design()._lut_cache_key())
    _forget_tables()
    read = design()._get_lut()
    assert read is not built
    assert read.dtype == built.dtype and read.tobytes() == built.tobytes()


@pytest.mark.parametrize("damage", ["truncated", "garbage", "wrong shape"])
def test_damaged_table_files_are_rebuilt(table_cache, damage):
    want = AxFPM()._get_lut().tobytes()
    (path,) = table_cache.glob("*.npy")
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif damage == "garbage":
        path.write_bytes(b"not a table at all" * 100)
    else:
        np.save(path, np.zeros((4, 4), dtype=np.uint32))
    _forget_tables()
    assert AxFPM()._get_lut().tobytes() == want
    _forget_tables()
    assert AxFPM()._get_lut().tobytes() == want  # the rebuilt file reads back


def test_designs_without_a_cache_key_stay_uncached(table_cache):
    class CustomPolicy(UniformCellPolicy):
        pass

    multiplier = ApproxFPM(cells=CustomPolicy("ama5"), frac_bits=4)
    assert multiplier._lut_cache_key() is None
    multiplier._get_lut()
    assert not table_cache.exists()


def test_a_warm_cache_builds_no_table_for_a_product_table(table_cache, monkeypatch):
    from repro.arith.kernels import _resolve_product_table

    want = _resolve_product_table(AxFPM()).tobytes()
    _forget_tables()

    def simulate(self):
        raise AssertionError("the gate-level tabulation ran over a warm table cache")

    monkeypatch.setattr(ArrayMultiplier, "build_lut", simulate)
    assert _resolve_product_table(AxFPM()).tobytes() == want
