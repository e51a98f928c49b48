"""Parity and caching tests for the approximate-GEMM kernel engine.

The contract under test: for every multiplier and every input, the kernel
returned by ``Multiplier.make_gemm_kernel()`` is **bit-identical** to the
reference computation ``multiplier.multiply`` + float32 left-fold sum over K
(which is exactly what ``products.sum(axis=2)`` performs over the strided
reduction axis of the historical convolution path).  For LUT designs that
kernel is the native library's compiled loop: hypothesis compares it with
:class:`FallbackGemmKernel` byte for byte at the edges (signed zeros,
subnormals, inf/NaN, the exponent-sum window, singleton extents, strided
slices), and without the library ``make_gemm_kernel`` hands out the
reference kernel itself.  Tests that need the compiled kernel skip only
where no C compiler exists.
"""

import multiprocessing
import shutil
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.arith.fpm import AxFPM, Bfloat16Multiplier, ExactMultiplier, HEAPMultiplier
from repro.arith.kernels import (
    KERNEL_STATS,
    FallbackGemmKernel,
    FusedLutGemmKernel,
    pow2_table,
    signed_product_table,
)
from repro.faults import FAULTS
from repro.nn import native
from repro.nn.approx import ApproxConv2d, ApproxLinear, prime_gemm_kernels
from repro.nn.layers import Conv2d, Linear

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


def reference_gemm(multiplier, cols, weight):
    """The pre-kernel path: broadcast multiply + identity-seeded float32 fold."""
    products = multiplier.multiply(
        cols[:, np.newaxis, :, :], weight[np.newaxis, :, :, np.newaxis]
    )
    out = np.zeros((cols.shape[0], weight.shape[0], cols.shape[2]), dtype=np.float32)
    for k in range(products.shape[2]):
        np.add(out, products[:, :, k, :], out=out)
    return out


def assert_bit_identical(a, b, context=""):
    __tracebackhint__ = True
    assert a.shape == b.shape and a.dtype == b.dtype == np.float32, context
    np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32), err_msg=context)


def mixed_operands(rng, shape, zeros=0.15):
    """float32 values mixing signs, magnitudes and exact zeros."""
    x = rng.uniform(-2.0, 2.0, size=shape).astype(np.float32)
    x[rng.random(shape) < zeros] = 0.0
    x[rng.random(shape) < 0.05] *= np.float32(1e-3)  # small magnitudes
    return x


MULTIPLIER_CASES = [
    ("axfpm-4", lambda: AxFPM(frac_bits=4)),
    ("axfpm-8", lambda: AxFPM(frac_bits=8)),
    ("axfpm-10", lambda: AxFPM(frac_bits=10)),
    ("heap-4", lambda: HEAPMultiplier(frac_bits=4)),
    ("heap-8", lambda: HEAPMultiplier(frac_bits=8)),
    ("heap-10", lambda: HEAPMultiplier(frac_bits=10)),
    ("bfloat16", Bfloat16Multiplier),
    ("exact", ExactMultiplier),
]

SHAPES = [(4, 3, 1, 5), (3, 5, 17, 9), (2, 16, 54, 25), (5, 2, 40, 1)]


@pytest.mark.parametrize("name,factory", MULTIPLIER_CASES, ids=[c[0] for c in MULTIPLIER_CASES])
def test_kernel_bit_identical_to_reference(name, factory):
    multiplier = factory()
    kernel = multiplier.make_gemm_kernel()
    rng = np.random.default_rng(hash(name) % 2**32)
    for n, f, k, l in SHAPES:
        cols = mixed_operands(rng, (n, k, l))
        weight = mixed_operands(rng, (f, k), zeros=0.1)
        got = kernel(cols, weight, weight_version=1)
        assert_bit_identical(got, reference_gemm(multiplier, cols, weight), f"{name} {n,f,k,l}")


def test_kernel_matches_strided_axis_sum():
    """For L > 1 the reference fold equals numpy's own ``sum(axis=2)``."""
    multiplier = AxFPM(frac_bits=8)
    kernel = multiplier.make_gemm_kernel()
    rng = np.random.default_rng(7)
    cols = mixed_operands(rng, (3, 60, 11))
    weight = mixed_operands(rng, (6, 60))
    products = multiplier.multiply(cols[:, None, :, :], weight[None, :, :, None])
    assert_bit_identical(
        kernel(cols, weight), products.sum(axis=2, dtype=np.float32), "sum(axis=2)"
    )


@needs_cc
def test_fused_kernel_selected_only_when_lut_available():
    assert isinstance(AxFPM(frac_bits=8).make_gemm_kernel(), FusedLutGemmKernel)
    assert isinstance(AxFPM(frac_bits=12, use_lut=False).make_gemm_kernel(), FallbackGemmKernel)
    assert isinstance(ExactMultiplier().make_gemm_kernel(), FallbackGemmKernel)
    assert isinstance(Bfloat16Multiplier().make_gemm_kernel(), FallbackGemmKernel)


@needs_cc
def test_extreme_exponents_fall_back_with_parity():
    """Operands outside the provably-safe scaling window stay bit-exact."""
    multiplier = AxFPM(frac_bits=8)
    kernel = multiplier.make_gemm_kernel()
    rng = np.random.default_rng(13)
    cols = (rng.uniform(1.0, 2.0, size=(2, 6, 3)) * 1e38).astype(np.float32)
    weight = (rng.uniform(1.0, 2.0, size=(3, 6)) * 1e38).astype(np.float32)
    before = KERNEL_STATS.unsafe_calls
    got = kernel(cols, weight, weight_version=1)
    assert KERNEL_STATS.unsafe_calls > before
    assert_bit_identical(got, reference_gemm(multiplier, cols, weight), "overflow regime")

    tiny_cols = (rng.uniform(1.0, 2.0, size=(2, 6, 3)) * 1e-38).astype(np.float32)
    tiny_weight = (rng.uniform(1.0, 2.0, size=(3, 6)) * 1e-38).astype(np.float32)
    got = kernel(tiny_cols, tiny_weight, weight_version=2)
    assert_bit_identical(got, reference_gemm(multiplier, tiny_cols, tiny_weight), "underflow")


def test_non_finite_activations_fall_back_with_parity():
    multiplier = AxFPM(frac_bits=8)
    kernel = multiplier.make_gemm_kernel()
    rng = np.random.default_rng(17)
    cols = mixed_operands(rng, (2, 5, 4))
    cols[0, 0, 0] = np.inf
    weight = mixed_operands(rng, (3, 5))
    got = kernel(cols, weight, weight_version=1)
    assert_bit_identical(got, reference_gemm(multiplier, cols, weight), "inf activation")


def test_signed_zero_products_match_reference():
    multiplier = AxFPM(frac_bits=8)
    kernel = multiplier.make_gemm_kernel()
    cols = np.array([[[0.0], [-0.0], [1.5]]], dtype=np.float32)  # (1, 3, 1)
    weight = np.array([[-2.0, 3.0, 0.0], [0.0, -0.0, -1.25]], dtype=np.float32)
    got = kernel(cols, weight, weight_version=1)
    assert_bit_identical(got, reference_gemm(multiplier, cols, weight), "signed zeros")


@needs_cc
def test_weight_cache_hits_across_calls():
    multiplier = AxFPM(frac_bits=8)
    kernel = multiplier.make_gemm_kernel()
    rng = np.random.default_rng(19)
    cols = mixed_operands(rng, (3, 12, 7))
    weight = mixed_operands(rng, (4, 12))
    kernel(cols, weight, weight_version=41)
    hits = KERNEL_STATS.weight_cache_hits
    misses = KERNEL_STATS.weight_cache_misses
    kernel(cols, weight, weight_version=41)
    kernel(cols, weight, weight_version=41)
    assert KERNEL_STATS.weight_cache_hits == hits + 2
    assert KERNEL_STATS.weight_cache_misses == misses


def test_weight_cache_invalidated_on_version_change():
    multiplier = AxFPM(frac_bits=8)
    kernel = multiplier.make_gemm_kernel()
    rng = np.random.default_rng(23)
    cols = mixed_operands(rng, (3, 12, 7))
    weight_a = mixed_operands(rng, (4, 12))
    weight_b = mixed_operands(rng, (4, 12))
    out_a = kernel(cols, weight_a, weight_version=1)
    # new content under a new version: the kernel must recompute, not reuse
    out_b = kernel(cols, weight_b, weight_version=2)
    assert_bit_identical(out_b, reference_gemm(multiplier, cols, weight_b), "after mutation")
    assert not np.array_equal(out_a, out_b)


def test_conv_layer_weight_mutation_recomputes():
    """Mutating layer weights (through Parameter assignment) is picked up."""
    layer = ApproxConv2d(1, 2, 3, multiplier=AxFPM(frac_bits=8), rng=np.random.default_rng(3))
    x = np.random.default_rng(4).uniform(-1, 1, size=(2, 1, 8, 8)).astype(np.float32)
    out1 = layer.forward(x)
    version = layer.weight.version
    layer.weight.value = layer.weight.value * np.float32(2.0)
    assert layer.weight.version > version
    out2 = layer.forward(x)
    assert not np.array_equal(out1, out2)
    # and the recomputed outputs match a fresh layer with the same weights
    fresh = ApproxConv2d(1, 2, 3, multiplier=AxFPM(frac_bits=8))
    fresh.weight = layer.weight
    fresh.bias = layer.bias
    assert_bit_identical(out2, fresh.forward(x), "stale weight cache")


def test_conv_layer_weight_object_replacement_recomputes():
    """Swapping the weight Parameter *object* must also invalidate the cache."""
    from repro.nn.layers import Parameter

    layer = ApproxConv2d(1, 2, 3, multiplier=AxFPM(frac_bits=8), rng=np.random.default_rng(31))
    x = np.random.default_rng(32).uniform(-1, 1, size=(2, 1, 7, 7)).astype(np.float32)
    out1 = layer.forward(x)
    layer.weight = Parameter(
        np.random.default_rng(33).normal(0, 0.3, size=layer.weight.shape), name="swapped"
    )
    out2 = layer.forward(x)
    assert not np.array_equal(out1, out2)
    fresh = ApproxConv2d(1, 2, 3, multiplier=AxFPM(frac_bits=8))
    fresh.weight = layer.weight
    fresh.bias = layer.bias
    assert_bit_identical(out2, fresh.forward(x), "weight object swap")


def test_approx_conv_forward_bit_identical_to_pre_kernel_path():
    """End-to-end layer parity against the historical forward implementation."""
    exact = Conv2d(2, 4, 3, rng=np.random.default_rng(5))
    multiplier = AxFPM(frac_bits=8)
    layer = ApproxConv2d.from_exact(exact, multiplier=multiplier, batch_chunk=2)
    x = mixed_operands(np.random.default_rng(6), (5, 2, 9, 9))

    from repro.nn import functional as F

    cols = F.im2col(x, (3, 3), 1, 0)
    w_mat = layer.weight.value.reshape(4, -1)
    out_ref = np.empty((5, 4, 49), dtype=np.float32)
    for start in range(0, 5, 2):
        stop = min(5, start + 2)
        products = multiplier.multiply(
            cols[start:stop, np.newaxis, :, :], w_mat[np.newaxis, :, :, np.newaxis]
        )
        out_ref[start:stop] = products.sum(axis=2, dtype=np.float32)
    out_ref += layer.bias.value.reshape(1, 4, 1)
    expected = out_ref.reshape(5, 4, 7, 7).astype(np.float32)
    assert_bit_identical(layer.forward(x), expected, "ApproxConv2d vs pre-kernel path")


def test_approx_linear_chunk_grid_matches_reference():
    exact = Linear(20, 9, rng=np.random.default_rng(10))
    multiplier = AxFPM(frac_bits=8)
    x = mixed_operands(np.random.default_rng(12), (5, 20))
    expected = reference_gemm(multiplier, x[:, :, np.newaxis], exact.weight.value)[:, :, 0]
    expected = (expected + exact.bias.value).astype(np.float32)
    for batch_chunk in (2, 5, 1, 64):
        layer = ApproxLinear.from_exact(exact, multiplier=multiplier, batch_chunk=batch_chunk)
        assert_bit_identical(layer.forward(x), expected, f"batch_chunk {batch_chunk}")


def test_kernel_rebuilt_when_multiplier_swapped():
    layer = ApproxConv2d(1, 2, 3, multiplier=AxFPM(frac_bits=8))
    first = layer.gemm_kernel
    assert layer.gemm_kernel is first  # stable while the multiplier stays
    layer.multiplier = ExactMultiplier()
    assert isinstance(layer.gemm_kernel, FallbackGemmKernel)


@needs_cc
def test_prime_gemm_kernels_builds_layer_kernels():
    from repro.nn.models import build_lenet5, convert_to_approximate

    model = build_lenet5((1, 12, 12), conv_channels=(2, 3), fc_sizes=(8, 8), dropout=0.0)
    approx = convert_to_approximate(model)
    layers = [l for l in approx.layers if isinstance(l, ApproxConv2d)]
    assert all(l._gemm_kernel is None for l in layers)
    prime_gemm_kernels(approx)
    assert all(isinstance(l._gemm_kernel, FusedLutGemmKernel) for l in layers)


def test_signed_product_table_layout():
    multiplier = AxFPM(frac_bits=4)
    table = signed_product_table(multiplier._get_lut(), 4)
    half = 1 << 4
    assert table.shape == (2 * half + 1, 2 * half + 1)
    assert not table.flags.writeable
    # zero row/column flush to +0.0 (no sign)
    assert np.all(table[2 * half] == 0.0) and np.all(table[:, 2 * half] == 0.0)
    assert not np.any(np.signbit(table[2 * half]))
    # sign symmetry of the quadrants
    np.testing.assert_array_equal(table[:half, :half], -table[:half, half : 2 * half])
    np.testing.assert_array_equal(table[:half, :half], table[half : 2 * half, half : 2 * half])


def test_pow2_table_exact_inside_window():
    table = pow2_table()
    from repro.arith.kernels import POW2_BIAS

    for e in (-149, -126, -1, 0, 1, 127):
        assert table[e + POW2_BIAS] == np.float32(2.0**e)
    assert table[256 + POW2_BIAS] == np.inf  # beyond float32's exponent range
    assert table[0] == 0.0


@needs_cc
def test_run_telemetry_embeds_kernel_deltas():
    from repro.parallel.telemetry import RunTelemetry

    telemetry = RunTelemetry()
    multiplier = AxFPM(frac_bits=8)
    kernel = multiplier.make_gemm_kernel()
    rng = np.random.default_rng(29)
    kernel(mixed_operands(rng, (2, 9, 4)), mixed_operands(rng, (3, 9)), weight_version=1)
    snap = telemetry.snapshot()["kernels"]
    assert snap["fused_calls"] >= 1
    assert snap["fused_macs"] >= 2 * 3 * 9 * 4


# ----------------------------------------------- the compiled loop, at the edges
#: float32 edge values: signed zeros, subnormals, the normal extremes and
#: ordinary magnitudes (inf/NaN get their own property below)
EDGES = [0.0, -0.0, 1e-45, -1e-45, 1e-40, -3e-39, 1.1754944e-38, 3.4e38, -1.5, 1.0, 0.75]
WIDE = float(np.float32(1e30))
VALUES = st.sampled_from(EDGES) | st.floats(-4.0, 4.0, width=32) | st.floats(-WIDE, WIDE, width=32)
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_MULTIPLIERS = {}


def lut_multiplier(design, frac_bits):
    """One shared instance per design (their LUTs are built once per process)."""
    key = (design, frac_bits)
    if key not in _MULTIPLIERS:
        cls = AxFPM if design == "axfpm" else HEAPMultiplier
        _MULTIPLIERS[key] = cls(frac_bits=frac_bits)
    return _MULTIPLIERS[key]


DESIGNS = st.tuples(st.sampled_from(["axfpm", "heap"]), st.sampled_from([1, 4, 8, 10]))


@st.composite
def gemm_case(draw, elements=VALUES):
    """``(cols, weight)``: singleton or small N/F/K, L = 1 or > 1, any strides."""
    n, f, k = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    l = draw(st.sampled_from([1, 1, 2, 7]))
    weight = draw(hnp.arrays(np.float32, (f, k), elements=elements))
    layout = draw(st.sampled_from(["nkl", "knl", "sliced", "flipped"]))
    if layout == "knl":  # a (K, N, L) buffer viewed as (N, K, L), then one batch slice
        wide = draw(hnp.arrays(np.float32, (k, n + 2, l), elements=elements))
        cols = wide.transpose(1, 0, 2)[1 : n + 1]
    elif layout == "sliced":
        cols = draw(hnp.arrays(np.float32, (n, k, 2 * l), elements=elements))[:, :, ::2]
    else:
        cols = draw(hnp.arrays(np.float32, (n, k, l), elements=elements))
        cols = cols[::-1, :, ::-1] if layout == "flipped" else cols
    return cols, weight


def assert_matches_reference(multiplier, cols, weight, **kwargs):
    got = multiplier.make_gemm_kernel()(cols, weight, **kwargs)
    want = FallbackGemmKernel(multiplier)(cols, weight)
    assert got.shape == want.shape and got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    return got


@needs_cc
@SETTINGS
@given(DESIGNS, gemm_case())
def test_compiled_gemm_matches_the_reference_kernel(design, case):
    assert_matches_reference(lut_multiplier(*design), *case)


def _call_counts(multiplier, cols, weight):
    """``(fused, unsafe)`` call deltas of one kernel call, after checking parity."""
    mark = KERNEL_STATS.snapshot()
    assert_matches_reference(multiplier, cols, weight)
    delta = KERNEL_STATS.delta(mark)
    return delta["fused_calls"], delta["unsafe_calls"]


@needs_cc
@pytest.mark.parametrize("design", [("axfpm", 8), ("heap", 4), ("axfpm", 1), ("heap", 10)])
@pytest.mark.parametrize(
    "activation_exp,weight_exp,on_c",
    [
        (-126, -23, True),  # the sum is -149: the smallest subnormal power
        (-126, -24, False),  # -150: routed to the reference
        (100, 27, True),  # 127: the largest finite power
        (100, 28, False),  # 128: routed
    ],
)
def test_the_exponent_window_edges_route_as_documented(design, activation_exp, weight_exp, on_c):
    multiplier = lut_multiplier(*design)
    rng = np.random.default_rng(47)
    signs = lambda shape: np.where(rng.random(shape) < 0.5, -1.0, 1.0)  # noqa: E731
    cols = (signs((2, 5, 3)) * rng.uniform(1.0, 2.0, (2, 5, 3)) * 2.0**activation_exp)
    weight = signs((4, 5)) * rng.uniform(1.0, 2.0, (4, 5)) * 2.0**weight_exp
    cols[0, 0, 0] = 2.0**activation_exp  # pin both extremes exactly
    weight[0, 0] = 2.0**weight_exp
    fused, unsafe = _call_counts(multiplier, cols.astype(np.float32), weight.astype(np.float32))
    assert (fused, unsafe) == ((1, 0) if on_c else (0, 1))


@needs_cc
@pytest.mark.parametrize(
    "cols,weight,on_c",
    [
        # zeros and subnormals decode to exponent 0: 0 + 127 stays, 1 + 127 does not
        ([0.0, -0.0, 1e-40], [2.0**127, -1.5 * 2.0**127, 2.0**127], True),
        ([0.0, 2.0, 1e-40], [2.0**127, -1.5 * 2.0**127, 2.0**127], False),
        # an inf weight decodes to exponent 128: -1 + 128 stays, 0 + 128 does not
        ([0.5, -0.75, 2.0**-100], [np.inf, 1.0, -0.5], True),
        ([1.0, -0.75, 2.0**-100], [np.inf, 1.0, -0.5], False),
    ],
)
def test_zero_and_infinite_operands_count_in_the_window(cols, weight, on_c):
    cols = np.array(cols, dtype=np.float32).reshape(1, 3, 1)
    weight = np.array([weight, weight[::-1]], dtype=np.float32)
    fused, unsafe = _call_counts(lut_multiplier("axfpm", 8), cols, weight)
    assert (fused, unsafe) == ((1, 0) if on_c else (0, 1))


@needs_cc
@SETTINGS
@given(
    DESIGNS,
    gemm_case(elements=st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.5, -3e-39])),
    st.data(),
)
def test_non_finite_activations_against_weights_below_one_stay_compiled(design, case, data):
    """inf/NaN decode to exponent 128; normal weights below 1.0 keep every sum <= 127.

    (A zero or subnormal weight decodes to exponent 0, like a zero activation,
    so it would put the sum at 128.)
    """
    cols, weight = case
    magnitude = st.floats(2.0**-100, float(np.float32(0.99)), width=32)
    below_one = st.builds(lambda m, s: s * m, magnitude, st.sampled_from([1.0, -1.0]))
    weight = data.draw(hnp.arrays(np.float32, weight.shape, elements=below_one))
    fused, unsafe = _call_counts(lut_multiplier(*design), cols, weight)
    assert (fused, unsafe) == (1, 0)


@needs_cc
def test_a_weight_version_change_invalidates_the_cache():
    multiplier = lut_multiplier("heap", 8)
    kernel = multiplier.make_gemm_kernel()
    rng = np.random.default_rng(37)
    cols = mixed_operands(rng, (3, 10, 4))
    first, second = mixed_operands(rng, (5, 10)), mixed_operands(rng, (5, 10))
    mark = KERNEL_STATS.snapshot()
    kernel(cols, first, weight_version=7)
    kernel(cols, first, weight_version=7)
    # same version, other content: the cache answers (the version is the contract)
    stale = kernel(cols, second, weight_version=7)
    assert_bit_identical(stale, reference_gemm(multiplier, cols, first), "cached weight")
    fresh = kernel(cols, second, weight_version=8)
    assert_bit_identical(fresh, reference_gemm(multiplier, cols, second), "new version")
    delta = KERNEL_STATS.delta(mark)
    assert (delta["weight_cache_hits"], delta["weight_cache_misses"]) == (2, 2)


@needs_cc
def test_the_compiled_call_refuses_operands_outside_its_contract():
    from repro.arith.kernels import POW2_BIAS

    lib = native.BACKEND.kernels()
    table = lut_multiplier("axfpm", 4).make_gemm_kernel()._product_table  # side 33
    cols = np.ones((1, 2, 1), np.float32)
    codes = np.zeros((2, 3), np.int32)
    call = lambda c, w, fb=4: lib.lut_gemm(  # noqa: E731
        c, w, np.zeros_like(codes), table, fb, pow2_table(), POW2_BIAS, (-149, 127)
    )
    assert call(cols, codes).shape == (1, 3, 1)
    outside = codes.copy()
    outside[1, 2] = 33
    for bad in (
        lambda: call(cols.astype(np.float64), codes),
        lambda: call(cols, codes[:1]),
        lambda: call(cols, codes.astype(np.int64)),
        lambda: call(cols, codes, fb=8),
        lambda: call(cols, outside),
    ):
        with pytest.raises(ValueError):
            bad()


@contextmanager
def using(backend):
    saved = native.BACKEND
    native.BACKEND = backend
    try:
        yield
    finally:
        native.BACKEND = saved


def _da_lenet_forward(x):
    from repro.nn.models import build_lenet5, convert_to_approximate

    model = build_lenet5((1, 12, 12), conv_channels=(3, 4), fc_sizes=(8, 6), dropout=0.0, seed=5)
    approx = convert_to_approximate(model)
    kernels = [type(l.gemm_kernel) for l in approx.layers if isinstance(l, ApproxConv2d)]
    return kernels, approx.predict_logits(x)


@needs_cc
@pytest.mark.parametrize("cause", ["no compiler", "build fault"])
def test_without_the_library_the_reference_kernel_gives_the_same_bytes(cause, tmp_path, monkeypatch):
    x = np.random.default_rng(41).uniform(0.0, 1.0, (3, 1, 12, 12)).astype(np.float32)
    kernels, want = _da_lenet_forward(x)
    assert kernels and all(k is FusedLutGemmKernel for k in kernels)

    backend = native.NativeBackend(tmp_path)
    if cause == "no compiler":
        with monkeypatch.context() as patch:
            patch.setenv("PATH", str(tmp_path / "empty"))
            with pytest.warns(RuntimeWarning, match="no C compiler"):
                assert backend.kernels() is None
    else:
        FAULTS.configure("kernel.build_fail:1.0")
        try:
            with pytest.warns(RuntimeWarning, match=f"kernel.build_fail at {native.FAULT_KEY}"):
                assert backend.kernels() is None
        finally:
            FAULTS.configure(None)
    with using(backend):
        assert type(AxFPM().make_gemm_kernel()) is FallbackGemmKernel
        kernels, got = _da_lenet_forward(x)
    assert kernels and all(k is FallbackGemmKernel for k in kernels)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _forked_gemm(args):
    cols, weight = args
    builds = native.NATIVE_STATS.builds
    kernel = lut_multiplier("axfpm", 8).make_gemm_kernel()
    out = kernel(cols, weight, weight_version=1)
    return type(kernel).__name__, native.BACKEND.kernels().path, native.NATIVE_STATS.builds - builds, out


@needs_cc
def test_a_forked_worker_uses_the_parents_library():
    rng = np.random.default_rng(43)
    case = (mixed_operands(rng, (2, 9, 5)), mixed_operands(rng, (3, 9)))
    parent = native.BACKEND.kernels()
    assert parent is not None
    with multiprocessing.get_context("fork").Pool(1) as pool:
        name, path, builds, out = pool.apply(_forked_gemm, (case,))
    assert (name, path, builds) == ("FusedLutGemmKernel", parent.path, 0)
    assert_bit_identical(out, reference_gemm(lut_multiplier("axfpm", 8), *case), "forked worker")
