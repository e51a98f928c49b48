"""The compiled conv/pool kernels (:mod:`repro.nn.native`): parity and build.

Parity: every kernel, and the training and eval convolutions built on them,
must give the numpy path's bytes *and* strides -- the numpy functions are
the fallback and the oracle.  Hypothesis draws edge values (signed zeros,
NaN, infinities, subnormals, ties), odd pooled sizes, stride 2, padding 0
and 1, singleton N/F/K/L and channels-last-strided inputs like the training
activations.  Build: racing processes compile once, a corrupt library is
replaced, and with no compiler or an injected ``kernel.build_fail`` the
numpy path runs, is counted, and gives the same bytes.

Everything here skips only where no C compiler exists.
"""

import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.faults import FAULT_STATS, FAULTS, FaultInjector, FaultSpec
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    MaxPool2d,
    QuantConv2d,
    QuantReLU,
    ReLU,
    Sequential,
    native,
)
from repro.nn import functional as F
from repro.parallel.telemetry import RunTelemetry

pytestmark = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")

REPO = Path(__file__).resolve().parent.parent

#: float32 edge values: signed zeros, NaN, infinities, subnormals, ties
EDGES = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-40, -1e-40, 1.0, 1.0, -2.5]
VALUES = st.sampled_from(EDGES) | st.floats(-4.0, 4.0, width=32)
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def numpy_backend(tmp_path_factory):
    """A backend that resolved to the numpy fallback (no compiler on PATH)."""
    patch = pytest.MonkeyPatch()
    patch.setenv("PATH", str(tmp_path_factory.mktemp("no-cc")))
    backend = native.NativeBackend(tmp_path_factory.mktemp("native"))
    try:
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert backend.kernels() is None
    finally:
        patch.undo()
    return backend


@pytest.fixture(scope="module", autouse=True)
def native_kernels():
    """The process's compiled kernels: where ``cc`` exists they must load."""
    kernels = native.BACKEND.kernels()
    assert kernels is not None, "cc is on PATH but the native kernels did not load"
    return kernels


@contextmanager
def using(backend):
    saved = native.BACKEND
    native.BACKEND = backend
    try:
        yield
    finally:
        native.BACKEND = saved


@contextmanager
def every_size():
    """The compiled elementwise passes serve arrays of any size."""
    saved = native.ELEMENTWISE_MIN
    native.ELEMENTWISE_MIN = 1
    try:
        yield
    finally:
        native.ELEMENTWISE_MIN = saved


def assert_same(got, want, nan_payloads=True):
    """Equal dtype, shape, strides and bytes.

    ``nan_payloads=False`` compares every NaN as one: where two NaNs meet in
    a sum or product, which one survives depends on the operand order, and
    C compilers (numpy's loops included) may commute those operations.
    """
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    if not nan_payloads and got.dtype.kind == "f":
        got, want = (np.where(np.isnan(a), np.float32("nan"), a) for a in (got, want))
    assert got.tobytes() == want.tobytes()


@st.composite
def images(draw, min_side=1, shape=None, dtype=np.float32, elements=VALUES):
    """``(N, C, H, W)`` inputs: C-order, channels-last, sliced or flipped strides.

    ``shape`` fixes the shape (an operand to pair with another), ``dtype``
    and ``elements`` the values.
    """
    if shape is None:
        n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        h, w = draw(st.integers(min_side, 7)), draw(st.integers(min_side, 7))
    else:
        n, c, h, w = shape
    layout = draw(st.sampled_from(["c", "channels_last", "sliced", "flipped"]))
    if layout == "channels_last":
        nhwc = draw(hnp.arrays(dtype, (n, h, w, c), elements=elements))
        return nhwc.transpose(0, 3, 1, 2)
    if layout == "sliced":
        wide = draw(hnp.arrays(dtype, (n, c, h, 2 * w), elements=elements))
        return wide[:, :, :, ::2]
    x = draw(hnp.arrays(dtype, (n, c, h, w), elements=elements))
    return x[:, ::-1, :, ::-1] if layout == "flipped" else x


@st.composite
def geometries(draw, x):
    """A valid ``(kernel, stride, padding)`` for ``x``."""
    padding = draw(st.integers(0, 1))
    side = min(x.shape[2], x.shape[3]) + 2 * padding
    kernel = draw(st.integers(1, min(3, side)))
    return kernel, draw(st.integers(1, 2)), padding


# ------------------------------------------------------------------ kernels
@SETTINGS
@given(data=st.data())
def test_im2col_matches_numpy_in_every_layout(data):
    x = data.draw(images())
    kernel, stride, padding = data.draw(geometries(x))
    reference = F._im2col_numpy(x, (kernel, kernel), stride, padding)
    for layout, perm in F.IM2COL_LAYOUTS.items():
        want = reference if layout == "nkl" else reference.transpose(perm).copy()
        assert_same(F.im2col(x, (kernel, kernel), stride, padding, layout=layout), want)


@SETTINGS
@given(data=st.data())
def test_col2im_matches_numpy(data):
    x = data.draw(images())
    kernel, stride, padding = data.draw(geometries(x))
    n, c = x.shape[:2]
    _, _, l = F.conv_geometry(x.shape[2], x.shape[3], kernel, stride, padding)
    k = c * kernel * kernel
    # the eval path's C-order (N, K, L) and the training backward's
    # (N, K, L) view of an (N, L, K) GEMM result
    if data.draw(st.booleans()):
        cols = data.draw(hnp.arrays(np.float32, (n, k, l), elements=VALUES))
    else:
        cols = data.draw(hnp.arrays(np.float32, (n, l, k), elements=VALUES)).transpose(0, 2, 1)
    padded = F._col2im_numpy(cols, x.shape, (kernel, kernel), stride, padding)
    want = padded[:, :, padding:-padding, padding:-padding] if padding else padded
    assert_same(F.col2im(cols, x.shape, (kernel, kernel), stride, padding), want)


@SETTINGS
@given(x=images(min_side=2), data=st.data())
def test_maxpool_matches_numpy(x, data):
    if data.draw(st.booleans()):  # few values: ties everywhere, zeros of both signs
        few = st.sampled_from([0.0, -0.0, 1.0, float("nan")])
        x = data.draw(hnp.arrays(np.float32, x.shape, elements=few))
    out, argmax = F.maxpool2d_forward(x)
    want_out, want_argmax = F._maxpool2d_forward_numpy(x, 2, 2)
    assert_same(out, want_out)
    assert_same(argmax, want_argmax)
    grad_out = data.draw(hnp.arrays(np.float32, out.shape, elements=VALUES))
    assert_same(
        F.maxpool2d_backward(grad_out, argmax, x.shape),
        F._maxpool2d_backward_numpy(grad_out, argmax, x.shape, 2, 2),
    )


def test_lenet_pool_drops_the_odd_edge():
    x = np.arange(2 * 3 * 5 * 5, dtype=np.float32).reshape(2, 3, 5, 5)[:, :, ::-1]
    out, argmax = F.maxpool2d_forward(x)
    grad = F.maxpool2d_backward(np.ones_like(out), argmax, x.shape)
    assert out.shape == (2, 3, 2, 2)
    assert not grad[:, :, 4, :].any() and not grad[:, :, :, 4].any()
    assert_same(out, F._maxpool2d_forward_numpy(x, 2, 2)[0])
    assert_same(grad, F._maxpool2d_backward_numpy(np.ones_like(out), argmax, x.shape, 2, 2))


def test_inputs_the_kernels_do_not_serve_take_the_numpy_path():
    x64 = np.random.default_rng(2).standard_normal((2, 2, 5, 5))
    assert F.im2col(x64, (3, 3)).dtype == np.float64
    assert_same(F.maxpool2d_forward(x64.astype(np.float32), 3, 1)[0],
                F._maxpool2d_forward_numpy(x64.astype(np.float32), 3, 1)[0])
    out, argmax = F.maxpool2d_forward(x64.astype(np.float32))
    with pytest.raises(IndexError):  # an index outside the window, as numpy reports it
        F.maxpool2d_backward(np.ones_like(out), argmax + 10, x64.shape)


# ------------------------------------------------- BatchNorm and activations
def channels_last(x):
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@SETTINGS
@given(x=images())
@np.errstate(all="ignore")
def test_batchnorm_statistics_match_numpy(native_kernels, x):
    for batch in (x, channels_last(x)):
        mean, var = F.batchnorm_statistics(batch)
        assert_same(mean, batch.mean(axis=(0, 2, 3)), nan_payloads=False)
        assert_same(var, batch.var(axis=(0, 2, 3)), nan_payloads=False)
    # the compiled pass serves every dense channels-last batch of C >= 2
    assert (native_kernels.channel_stats(channels_last(x)) is not None) == (x.shape[1] > 1)


@SETTINGS
@given(a=images(), data=st.data())
@np.errstate(all="ignore")
def test_multiply_matches_numpy(native_kernels, a, data):
    if data.draw(st.booleans()):
        b = data.draw(images(shape=a.shape, dtype=np.bool_, elements=st.booleans()))
    else:
        b = data.draw(images(shape=a.shape))
    with every_size():
        assert_same(F.multiply(a, b), a * b, nan_payloads=False)
        if 1 not in a.shape:  # dense operands in two layouts, one C-contiguous
            a, b = channels_last(a), np.ascontiguousarray(b)
            product = native_kernels.multiply(a, b)
            assert product is not None
            assert_same(product, a * b, nan_payloads=False)


def test_long_rows_of_two_layouts_match_numpy(native_kernels, numpy_backend):
    """A C-order result over a channels-last operand, with rows of 24*24
    elements, as the products and BatchNorm of a training step have them."""
    rng = np.random.default_rng(4)
    a = rng.choice(np.array(EDGES, np.float32), (2, 3, 24, 24))
    b = channels_last(rng.standard_normal((2, 3, 24, 24)).astype(np.float32))

    def step():
        layer = BatchNorm2d(3)
        layer.set_training(True)
        return layer.forward(b), layer.backward(a), layer.gamma.grad, layer.beta.grad

    with np.errstate(all="ignore"), every_size():
        for other in (b, b > 0):
            product = native_kernels.multiply(a, other)
            assert product is not None
            assert_same(product, a * other, nan_payloads=False)
        got = step()
        with using(numpy_backend):
            want = step()
    for x, y in zip(got, want):
        assert_same(x, y, nan_payloads=False)


#: activations around QuantReLU's levels: exact half levels of odd L, 1 - ulp
LEVELS = st.sampled_from([0.5, 0.25, 0.75, 1 / 3, 2 / 3, 0.99999994, 1e-8]) | VALUES


@pytest.mark.parametrize("shape", [(3, 7), (2, 9), (3, 5), (2, 3, 4, 5)])
def test_quant_relu_edge_values_at_every_position(numpy_backend, shape):
    """Each edge value in each position of the 4-wide blocks and the tail."""
    edges = np.array(EDGES + [0.5, 0.25, 1 / 3, 0.99999994, 7.0], np.float32)
    size = int(np.prod(shape))
    for shift in range(4):
        x = np.roll(np.resize(edges, size), shift).reshape(shape)
        for bits in (1, 4, 8):
            with every_size(), np.errstate(all="ignore"):
                got = native.BACKEND.kernels().quant_relu(x, bits)
                with using(numpy_backend):
                    layer = QuantReLU(bits)
                    want = (layer.forward(x), layer._mask)
            for a, b in zip(got, want):
                assert_same(a, b)


@SETTINGS
@given(x=images(elements=LEVELS), bits=st.sampled_from([1, 2, 3, 4, 8, 23, 24, 32]), data=st.data())
@np.errstate(all="ignore")
def test_quant_relu_matches_numpy(numpy_backend, x, bits, data):
    if data.draw(st.booleans()):  # a dense layer's (N, F) activations
        x = x.reshape(len(x), -1)
    grad = data.draw(hnp.arrays(np.float32, x.shape, elements=VALUES))
    if x.ndim == 4 and data.draw(st.booleans()):
        grad = channels_last(grad)

    def run(layer):
        out = layer.forward(x)
        return out, layer._mask, layer.backward(grad)

    with every_size():
        got = run(QuantReLU(bits))
    with using(numpy_backend):
        want = run(QuantReLU(bits))
    for a, b in zip(got, want):
        assert_same(a, b)


@SETTINGS
@given(x=images(), training=st.booleans(), data=st.data())
@np.errstate(all="ignore")
def test_batchnorm_matches_numpy(numpy_backend, x, training, data):
    c = x.shape[1]
    vectors = [data.draw(hnp.arrays(np.float32, (c,), elements=VALUES)) for _ in range(4)]
    grad = data.draw(images(shape=x.shape))

    def run():
        layer = BatchNorm2d(c)
        layer.gamma.value, layer.beta.value, layer.running_mean, layer.running_var = vectors
        layer.set_training(training)
        out = layer.forward(x)
        grad_in = layer.backward(grad)
        return out, grad_in, layer.gamma.grad, layer.beta.grad, layer.running_mean, layer.running_var

    with every_size():
        got = run()
    with using(numpy_backend):
        want = run()
    for a, b in zip(got, want):
        assert_same(a, b, nan_payloads=False)


# --------------------------------------------------------------- convolution
@st.composite
def conv_cases(draw):
    x = draw(images())
    kernel, stride, padding = draw(geometries(x))
    f = draw(st.integers(1, 3))
    weights = st.floats(-1.0, 1.0, width=32)
    weight = draw(hnp.arrays(np.float32, (f, x.shape[1], kernel, kernel), elements=weights))
    bias = draw(hnp.arrays(np.float32, (f,), elements=weights))
    return x, weight, bias, stride, padding


@np.errstate(invalid="ignore", over="ignore")
def _conv_pass(x, weight, bias, stride, padding, batch_invariant):
    out, saved = F.conv2d_forward(x, weight, bias, stride, padding, batch_invariant=batch_invariant)
    grad_out = np.linspace(-1.0, 1.0, out.size, dtype=np.float32).reshape(out.shape)
    grads = F.conv2d_backward(
        grad_out, saved, x.shape, weight, stride, padding, batch_invariant=batch_invariant
    )
    return (out, *grads)


@SETTINGS
@given(case=conv_cases(), batch_invariant=st.booleans())
def test_convolution_matches_the_numpy_path(numpy_backend, case, batch_invariant):
    got = _conv_pass(*case, batch_invariant)
    with using(numpy_backend):
        want = _conv_pass(*case, batch_invariant)
    for a, b in zip(got, want):
        assert_same(a, b)


@np.errstate(invalid="ignore", over="ignore")
def _einsum_training_conv(x, weight, bias, stride, padding):
    """The training convolution as it was written with ``einsum`` (reference)."""
    n, _, h, w = x.shape
    f, _, kh, kw = weight.shape
    cols = F._im2col_numpy(x, (kh, kw), stride, padding)
    w_mat = weight.reshape(f, -1)
    out_h, out_w, _ = F.conv_geometry(h, w, (kh, kw), stride, padding)
    out = np.einsum("fk,nkl->nfl", w_mat, cols, optimize=True)
    out += bias.reshape(1, f, 1)
    out = out.reshape(n, f, out_h, out_w).astype(np.float32)
    grad_out = np.linspace(-1.0, 1.0, out.size, dtype=np.float32).reshape(out.shape)
    grad_mat = grad_out.reshape(n, f, -1)
    grad_weight = np.einsum("nfl,nkl->fk", grad_mat, cols, optimize=True).reshape(weight.shape)
    grad_cols = np.einsum("fk,nfl->nkl", w_mat, grad_mat, optimize=True)
    padded = F._col2im_numpy(grad_cols, x.shape, (kh, kw), stride, padding)
    grad_in = padded[:, :, padding:-padding, padding:-padding] if padding else padded
    return (
        out,
        grad_in.astype(np.float32),
        grad_weight.astype(np.float32),
        grad_out.sum(axis=(0, 2, 3)).astype(np.float32),
    )


def _einsum_issues_matmul() -> bool:
    try:
        from numpy._core import einsumfunc
    except ImportError:  # numpy 1.x
        return False
    return hasattr(einsumfunc, "bmm_einsum")


@pytest.mark.skipif(
    not _einsum_issues_matmul(), reason="this numpy's einsum does not contract through matmul"
)
@SETTINGS
@given(case=conv_cases())
def test_training_convolution_matches_its_einsum_form(case):
    got = _conv_pass(*case, False)
    for a, b in zip(got, _einsum_training_conv(*case)):
        assert_same(a, b)


def test_training_output_is_channels_last_in_memory():
    x = np.random.default_rng(0).standard_normal((4, 3, 8, 8)).astype(np.float32)
    weight = np.random.default_rng(1).standard_normal((5, 3, 3, 3)).astype(np.float32)
    out, saved = F.conv2d_forward(x, weight, np.zeros(5, np.float32), padding=1, batch_invariant=False)
    assert saved is x  # the input, not the 9x patch matrix
    assert out.strides == (8 * 8 * 5 * 4, 4, 8 * 5 * 4, 5 * 4)


def _stack(kind, rng):
    """Conv -> BN -> act -> pool -> BN -> act -> conv: BatchNorm and the
    activation see a channels-last input (a training convolution's output)
    and a C-contiguous one (the pool's)."""
    if kind == "quant":
        conv, act = (lambda *a, **k: QuantConv2d(*a, bits=4, **k)), (lambda: QuantReLU(bits=4))
    else:
        conv, act = Conv2d, ReLU
    return Sequential(
        [conv(3, 6, 3, padding=1, rng=rng), BatchNorm2d(6), act(), MaxPool2d(2),
         BatchNorm2d(6), act(), conv(6, 4, 3, rng=rng), act(), MaxPool2d(2)]
    )


def test_a_training_step_gives_the_numpy_bytes(numpy_backend):
    """A training step and an eval pass of a conv/BatchNorm/(Quant)ReLU stack,
    exact and quantised, on an NCHW and a channels-last input.

    The compiled passes serve every array here, however small.
    """

    def step(kind, layout):
        rng = np.random.default_rng(3)
        model = _stack(kind, rng)
        model.set_training(True)
        x = rng.standard_normal((8, 12, 12, 3)).astype(np.float32).transpose(0, 3, 1, 2)
        if layout == "nchw":
            x = np.ascontiguousarray(x)
        out = model.forward(x)
        grad = model.backward(np.linspace(-1.0, 1.0, out.size, dtype=np.float32).reshape(out.shape))
        grads = [p.grad.copy() for p in model.parameters()]
        norms = [layer for layer in model.layers if isinstance(layer, BatchNorm2d)]
        stats = [s for layer in norms for s in (layer.running_mean, layer.running_var)]
        model.set_training(False)
        evaluated = model.forward(x)
        return [out, grad, evaluated, model.backward(np.ones_like(out))] + grads + stats

    for kind in ("exact", "quant"):
        for layout in ("nchw", "channels_last"):
            with every_size():
                got = step(kind, layout)
            with using(numpy_backend):
                want = step(kind, layout)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_same(a, b)


# ----------------------------------------------------------------- the build
def _load_in_subprocess(directory: Path) -> subprocess.Popen:
    code = (
        "from repro.nn import native; "
        f"b = native.NativeBackend({str(directory)!r}); "
        "assert b.kernels() is not None; print(native.NATIVE_STATS.builds)"
    )
    env = {"PATH": os.environ["PATH"], "PYTHONPATH": str(REPO / "src")}
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env)


def test_racing_processes_compile_once_and_both_load(tmp_path):
    racers = [_load_in_subprocess(tmp_path) for _ in range(2)]
    builds = []
    try:
        for proc in racers:
            stdout, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            builds.append(int(stdout))
    finally:
        for proc in racers:
            proc.kill()
            proc.wait(timeout=10)
    assert sorted(builds) == [0, 1]
    assert len(list(tmp_path.glob("*.so"))) == 1


def test_threads_racing_for_a_cold_backend_build_once_and_share_it(tmp_path):
    backend = native.NativeBackend(tmp_path)
    builds = native.NATIVE_STATS.builds
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            loaded = list(pool.map(lambda _: backend.kernels(), range(8), timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert loaded[0] is not None and all(k is loaded[0] for k in loaded)
    assert native.NATIVE_STATS.builds == builds + 1


def test_an_unloadable_library_is_deleted_and_rebuilt(tmp_path):
    _, version = native._compiler()
    path = native.library_path(tmp_path, version)
    path.write_bytes(b"not a shared object")
    builds = native.NATIVE_STATS.builds
    kernels = native.NativeBackend(tmp_path).kernels()
    assert kernels is not None and kernels.path == path
    assert native.NATIVE_STATS.builds == builds + 1
    assert path.read_bytes()[:4] == b"\x7fELF"


def _counted_fallback(backend, match):
    fallbacks = native.NATIVE_STATS.fallbacks
    with pytest.warns(RuntimeWarning, match=match):
        assert backend.kernels() is None
    assert native.NATIVE_STATS.fallbacks == fallbacks + 1


def test_without_a_compiler_the_numpy_path_runs_and_is_counted(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    backend = native.NativeBackend(tmp_path / "native")
    telemetry = RunTelemetry()
    _counted_fallback(backend, "no C compiler")
    telemetry.fold_native()
    assert telemetry.faults["native_fallbacks"] == 1
    assert not (tmp_path / "native").exists()


def test_build_fail_fault_falls_back_with_the_same_bytes(tmp_path):
    x = np.random.default_rng(5).standard_normal((3, 2, 6, 6)).astype(np.float32)
    weight = np.random.default_rng(6).standard_normal((4, 2, 3, 3)).astype(np.float32)
    case = (x, weight, np.zeros(4, np.float32), 1, 1)
    injected = FAULT_STATS.kernel_build_fail
    FAULTS.configure("kernel.build_fail:1.0")
    try:
        backend = native.NativeBackend(tmp_path)
        _counted_fallback(backend, f"native:{native.DIGEST}")
    finally:
        FAULTS.configure(None)
    assert FAULT_STATS.kernel_build_fail == injected + 1
    assert not list(tmp_path.glob("*.so"))  # the fault fires before any compile
    with using(backend):
        want = _conv_pass(*case, False) + F.maxpool2d_forward(x)
    for a, b in zip(_conv_pass(*case, False) + F.maxpool2d_forward(x), want):
        assert_same(a, b)


def test_ci_chaos_seed_fires_only_at_the_native_key():
    """CI's native-fallback chaos leg must hit ``native:<DIGEST>`` and nothing else.

    Its ``kernel.build_fail`` coin also runs at every fused-GEMM kernel
    build, keyed by the multiplier's ``name``.  The engine's retry would heal
    a firing there, but the leg is meant to show one fault, the native
    fallback that its ``native_fallbacks=1`` and ``0 fused`` greps check.
    A change to the C source changes the digest: re-pick the seed then.
    """
    from repro.arith.fpm import Multiplier

    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    specs = set(re.findall(r"kernel\.build_fail:([0-9.]+):(\d+)", workflow))
    assert len(specs) == 1, specs
    probability, seed = specs.pop()
    spec = FaultSpec("kernel.build_fail", float(probability), int(seed))
    assert FaultInjector._decide(spec, f"native:{native.DIGEST}")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    names = {cls.name for cls in subclasses(Multiplier)}
    assert {"axfpm", "heap", "exact"} <= names
    for name in names | {"?"}:  # "?": the key of a multiplier without a name
        assert not FaultInjector._decide(spec, name), name
