"""Kernel microbenchmarks: the compiled approximate GEMM, and native conv/pool data movement.

Times the hot loop of the emulated Ax-FPM forward pass -- the contraction
``out[n,f,l] = sum_k M(cols[n,k,l], w[f,k])`` -- two ways, on the conv and
dense shapes of the paper's LeNet/AlexNet-style models:

* **old**: the historical implementation (decompose both operands per call,
  broadcast LUT fancy-indexing over the materialised ``(N, F, K, L)`` tensor,
  ``np.ldexp`` + ``np.where`` recomposition, ``sum(axis=2)``);
* **fused**: ``Multiplier.make_gemm_kernel()`` -- the native library's
  compiled loop over the precomposed signed-product table, with the weight
  decomposition cached (without a C compiler this is the reference kernel,
  and the ratios collapse to ~1x).

Every conv-shape comparison asserts **byte-identical** outputs (the dense
shapes assert byte-identity against the kernel contract -- the historical
dense path summed a contiguous axis, whose pairwise order the engine does not
reproduce).

A second section times the compiled conv/pool data movement of
:mod:`repro.nn.native` against the numpy functions it replaces -- ``im2col``
in the training convolution's two layouts, ``col2im`` of its input-gradient
GEMM result, and the 2x2 max-pool forward and backward -- at the LeNet,
AlexNet and DQ training shapes (fast-profile batch 64, channels-last inputs
where training feeds them).  Every row compares bytes and strides; any
difference fails the run.  The section is skipped, and says so, where no C
compiler exists.  Writes ``BENCH_kernels.json`` at the repository root::

    PYTHONPATH=src python benchmarks/perf_kernels.py [--repeats N] [--out PATH]
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import (  # noqa: E402
    add_record_arguments,
    check_regression,
    provenance,
    record_paths,
    write_record,
)
from repro.arith.fpm import AxFPM, HEAPMultiplier  # noqa: E402
from repro.arith.kernels import KERNEL_STATS  # noqa: E402
from repro.nn import functional as F  # noqa: E402
from repro.nn import native  # noqa: E402

#: ``--check`` gates the per-multiplier fused-vs-old speedup geomeans.  0.5x
#: tolerates runner noise and BLAS/hardware variation; an accidental fallback
#: to the un-fused path (the ~6-7x ratios collapsing to ~1x) still fails.
CHECK_METRICS = [
    (
        f"{name}_{kind}_speedup_geomean",
        (lambda n, k: lambda r: r["multipliers"][n][f"{k}_speedup_geomean"])(name, kind),
        0.5,
    )
    for name in ("axfpm", "heap")
    for kind in ("conv", "dense")
]

#: (label, kind, N, F, K, L) -- conv shapes are the im2col geometries of the
#: repo's LeNet-5 (16x16 digits) and compact AlexNet (32x32 objects) layers at
#: the default batch_chunk; dense shapes are their fully connected heads
SHAPES = [
    ("lenet_conv1", "conv", 32, 6, 9, 196),
    ("lenet_conv2", "conv", 32, 16, 54, 25),
    ("alexnet_conv2", "conv", 16, 16, 72, 256),
    ("alexnet_conv4", "conv", 16, 24, 216, 64),
    ("lenet_fc1", "dense", 128, 120, 64, 1),
    ("alexnet_fc1", "dense", 128, 128, 256, 1),
]


def old_path(multiplier, cols, weight):
    """The pre-kernel forward: broadcast multiply + ``sum(axis=2)``."""
    if cols.shape[2] == 1:  # dense: (N, K) x (F, K), contiguous-axis sum
        products = multiplier.multiply(cols[:, :, 0][:, np.newaxis, :], weight[np.newaxis, :, :])
        return products.sum(axis=2, dtype=np.float32)[:, :, np.newaxis]
    products = multiplier.multiply(
        cols[:, np.newaxis, :, :], weight[np.newaxis, :, :, np.newaxis]
    )
    return products.sum(axis=2, dtype=np.float32)


def reference_fold(multiplier, cols, weight):
    """The kernel contract: multiply + identity-seeded float32 fold over K."""
    products = multiplier.multiply(
        cols[:, np.newaxis, :, :], weight[np.newaxis, :, :, np.newaxis]
    )
    out = np.zeros((cols.shape[0], weight.shape[0], cols.shape[2]), dtype=np.float32)
    for k in range(products.shape[2]):
        np.add(out, products[:, :, k, :], out=out)
    return out


def best_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def bench_shape(multiplier, label, kind, n, f, k, l, repeats, rng):
    # L=1 is represented with a singleton spatial axis on the kernel side
    cols = rng.uniform(-1.0, 1.0, size=(n, k, l)).astype(np.float32)
    cols[rng.random(cols.shape) < 0.1] = 0.0  # post-ReLU sparsity
    weight = rng.normal(0.0, 0.2, size=(f, k)).astype(np.float32)
    kernel = multiplier.make_gemm_kernel()

    fused = kernel(cols, weight, weight_version=1)  # warm: LUTs, weight cache, buffers
    old = old_path(multiplier, cols, weight)
    if kind == "conv":
        identical = bool(np.array_equal(fused.view(np.uint32), old.view(np.uint32)))
    else:
        contract = reference_fold(multiplier, cols, weight)
        identical = bool(np.array_equal(fused.view(np.uint32), contract.view(np.uint32)))
        # sanity only: the historical dense path pairwise-summed a contiguous
        # axis, so it legitimately differs from the sequential fold by a few
        # low-order bits (amplified over large K)
        assert np.allclose(fused, old, rtol=1e-3, atol=1e-5), f"{label}: dense outputs drifted"

    t_old = best_time(lambda: old_path(multiplier, cols, weight), repeats)
    t_fused = best_time(lambda: kernel(cols, weight, weight_version=1), repeats)
    macs = n * f * k * l
    return {
        "shape": {"label": label, "kind": kind, "N": n, "F": f, "K": k, "L": l},
        "macs": macs,
        "old_seconds": round(t_old, 6),
        "fused_seconds": round(t_fused, 6),
        "old_mmacs_per_s": round(macs / t_old / 1e6, 2),
        "fused_mmacs_per_s": round(macs / t_fused / 1e6, 2),
        "speedup": round(t_old / t_fused, 3),
        "byte_identical": identical,
    }


#: (model, op, (N, C, H, W) input, padding, channels-last input): the data
#: movement of one fast-profile training step (batch 64); LeNet's second
#: pool is the odd 5x5 -> 2x2 one
MOVEMENT_SHAPES = [
    ("lenet", "im2col", (64, 1, 16, 16), 0, False),
    ("lenet", "im2col", (64, 12, 7, 7), 0, False),
    ("lenet", "col2im", (64, 12, 7, 7), 0, False),
    ("lenet", "maxpool", (64, 12, 14, 14), 0, True),
    ("lenet", "maxpool", (64, 24, 5, 5), 0, True),
    ("alexnet", "im2col", (64, 3, 32, 32), 1, False),
    ("alexnet", "im2col", (64, 24, 8, 8), 1, True),
    ("alexnet", "col2im", (64, 8, 16, 16), 1, False),
    ("alexnet", "col2im", (64, 24, 8, 8), 1, False),
    ("alexnet", "maxpool", (64, 8, 32, 32), 0, True),
    ("dq", "im2col", (64, 8, 32, 32), 1, True),
    ("dq", "im2col", (64, 16, 16, 16), 1, True),
    ("dq", "col2im", (64, 8, 32, 32), 1, False),
    ("dq", "col2im", (64, 16, 16, 16), 1, False),
    ("dq", "maxpool", (64, 8, 32, 32), 0, True),
    ("dq", "maxpool", (64, 24, 8, 8), 0, True),
]


def _same(a, b) -> bool:
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.strides == b.strides
        and a.tobytes() == b.tobytes()
    )


def _movement_case(op, shape, padding, channels_last, rng):
    """``(native_fn, numpy_fn, label)`` for one :data:`MOVEMENT_SHAPES` row.

    Each function returns the arrays of its op, so outputs can be compared.
    """
    n, c, h, w = shape
    x = rng.standard_normal(shape).astype(np.float32)
    if channels_last:
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if op == "im2col":
        def run(im2col):
            return [im2col(layout) for layout in ("nlk", "knl")]

        def numpy_im2col(layout):
            cols = F._im2col_numpy(x, (3, 3), 1, padding)
            return cols.transpose(F.IM2COL_LAYOUTS[layout]).copy()

        return (
            lambda: run(lambda layout: F.im2col(x, (3, 3), 1, padding, layout=layout)),
            lambda: run(numpy_im2col),
            "nlk+knl",
        )
    if op == "col2im":
        _, _, l = F.conv_geometry(h, w, 3, 1, padding)
        # the training input gradient: an (N, L, K) GEMM result viewed as (N, K, L)
        cols = rng.standard_normal((n, l, c * 9)).astype(np.float32).transpose(0, 2, 1)

        def numpy_col2im():
            padded = F._col2im_numpy(cols, shape, (3, 3), 1, padding)
            return [padded[:, :, padding:-padding, padding:-padding] if padding else padded]

        return lambda: [F.col2im(cols, shape, (3, 3), 1, padding)], numpy_col2im, "nlk source"
    out, argmax = F._maxpool2d_forward_numpy(x, 2, 2)
    grad = rng.standard_normal(out.shape).astype(np.float32)
    return (
        lambda: [*F.maxpool2d_forward(x), F.maxpool2d_backward(grad, argmax, shape)],
        lambda: [
            *F._maxpool2d_forward_numpy(x, 2, 2),
            F._maxpool2d_backward_numpy(grad, argmax, shape, 2, 2),
        ],
        "fwd+bwd",
    )


def bench_movement(repeats, rng):
    """Native vs numpy rows of :data:`MOVEMENT_SHAPES` (``None`` without the kernels)."""
    if native.BACKEND.kernels() is None:
        return None
    rows = []
    for model, op, shape, padding, channels_last in MOVEMENT_SHAPES:
        fast, slow, what = _movement_case(op, shape, padding, channels_last, rng)
        identical = all(_same(a, b) for a, b in zip(fast(), slow()))
        t_native = best_time(fast, repeats)
        t_numpy = best_time(slow, repeats)
        rows.append(
            {
                "model": model,
                "op": op,
                "what": what,
                "shape": list(shape),
                "padding": padding,
                "channels_last": channels_last,
                "numpy_seconds": round(t_numpy, 6),
                "native_seconds": round(t_native, 6),
                "speedup": round(t_numpy / t_native, 3),
                "byte_identical": identical,
            }
        )
    return {
        "library": native.BACKEND.kernels().path.name,
        "shapes": rows,
        "parity": all(r["byte_identical"] for r in rows),
        "speedup_geomean": round(geomean([r["speedup"] for r in rows]), 3),
    }


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    parser.add_argument("--frac-bits", type=int, default=8, help="emulated fraction width")
    add_record_arguments(parser, "kernels")
    args = parser.parse_args(argv)
    out_path, baseline = record_paths(args, "kernels")

    rng = np.random.default_rng(0)
    record = {
        "benchmark": "fused_approximate_gemm_kernels",
        **provenance(),
        "frac_bits": args.frac_bits,
        "repeats": args.repeats,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "multipliers": {},
    }
    failed = False
    for name, multiplier in (
        ("axfpm", AxFPM(frac_bits=args.frac_bits)),
        ("heap", HEAPMultiplier(frac_bits=args.frac_bits)),
    ):
        rows = [
            bench_shape(multiplier, label, kind, n, f, k, l, args.repeats, rng)
            for label, kind, n, f, k, l in SHAPES
        ]
        conv = [r for r in rows if r["shape"]["kind"] == "conv"]
        dense = [r for r in rows if r["shape"]["kind"] == "dense"]
        parity = all(r["byte_identical"] for r in rows)
        failed |= not parity
        record["multipliers"][name] = {
            "shapes": rows,
            "parity": parity,
            "conv_speedup_min": round(min(r["speedup"] for r in conv), 3),
            "conv_speedup_geomean": round(geomean([r["speedup"] for r in conv]), 3),
            "dense_speedup_geomean": round(geomean([r["speedup"] for r in dense]), 3),
        }
    axfpm = record["multipliers"]["axfpm"]
    record["conv_speedup"] = axfpm["conv_speedup_geomean"]
    record["kernel_stats"] = KERNEL_STATS.snapshot()
    movement = bench_movement(args.repeats, rng)
    record["native_data_movement"] = movement
    if movement is None:
        print("# native conv/pool kernels unavailable (no C compiler): data-movement rows skipped")
    elif not movement["parity"]:
        failed = True

    write_record(out_path, record)
    if failed:
        print("ERROR: a kernel diverged from its reference path", file=sys.stderr)
        return 1
    if args.check and check_regression(baseline, record, CHECK_METRICS):
        print("ERROR: kernel performance regressed against the baseline", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
