"""Functional primitives: im2col convolution, pooling, activations, softmax.

All functions operate on ``float32`` arrays in ``(N, C, H, W)`` layout and come
with analytic backward companions, which is what the gradient-based adversarial
attacks (FGSM, PGD, JSMA, C&W, DeepFool) need.

Batch invariance
----------------
Every *input-dependent* GEMM in this module is issued so that a given
example's outputs (and input gradients) are bitwise independent of the batch
it rode in with.  BLAS picks different micro-kernels -- with different
floating-point reduction orders -- depending on the operand widths, so a
naive ``x @ W.T`` at batch 1 does not reproduce the bits of the same row
inside a batch-8 call.  Two constructions restore invariance:

* convolutions contract ``weight @ cols[i]`` one example at a time: the GEMM
  shape ``(F, K) x (K, L)`` is a constant of the layer geometry, so every
  call -- whatever the batch size -- takes the identical BLAS path;
* dense contractions go through :func:`batch_invariant_matmul`, which puts
  the batch on the GEMM's *column* dimension and issues fixed-width,
  zero-padded column blocks: each output column is then a pure function of
  its own input column, independent of position and neighbours.

Parameter-gradient GEMMs (``grad.T @ x``) reduce *over* the batch and are
inherently batch-shaped; they only feed training and keep the fast fused
path.  The batched attack engine (:mod:`repro.attacks.batched`) relies on
this contract for its bit-for-bit active-set rollouts.

Data movement
-------------
:func:`im2col`, :func:`col2im` and the 2x2 max-pool dispatch to the compiled
kernels of :mod:`repro.nn.native` when the process has them, and otherwise
run the numpy implementations here (``_im2col_numpy`` and friends), which are
also the kernels' parity oracle: both paths give the same bytes.  So do the
BatchNorm functions, :func:`multiply` and the activations' backward pass,
whose numpy expressions are the fallback and oracle.  The
training-mode (whole-batch) convolution issues its GEMMs on operands in the
layouts ``einsum`` builds for them, and keeps each output's strides: the
convolution output is channels-last in memory, and the BatchNorm reductions
after it sum in memory order, so the layout is part of the training numerics.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import native

#: column width of every :func:`batch_invariant_matmul` BLAS call.  Any fixed
#: value works (calls of one constant shape always take one BLAS path); 32
#: keeps the zero-padding waste of small active-set batches low while leaving
#: per-call overhead negligible for wide evaluation batches.
GEMM_COLUMN_BLOCK = 32


def batch_invariant_matmul(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``a @ cols`` with bitwise column-stable results.

    ``a`` is the fixed operand (weights), ``cols`` carries one example per
    column.  The product is issued in :data:`GEMM_COLUMN_BLOCK`-wide column
    blocks, the ragged tail zero-padded to the full width, so every BLAS call
    has the same shape ``(M, K) x (K, block)`` and every output column gets
    the same floating-point reduction order regardless of how many other
    columns were in the caller's batch.
    """
    k, n = cols.shape
    block = GEMM_COLUMN_BLOCK
    if n == block:
        return np.asarray(a @ cols, dtype=np.float32)
    out = np.empty((a.shape[0], n), dtype=np.float32)
    pad = None
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        if hi - lo == block:
            out[:, lo:hi] = a @ cols[:, lo:hi]
        else:
            if pad is None:
                pad = np.zeros((k, block), dtype=np.float32)
            pad[:, : hi - lo] = cols[:, lo:hi]
            out[:, lo:hi] = (a @ pad)[:, : hi - lo]
    return out


def linear_forward_values(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight.T`` computed batch-invariantly (batch on the column axis)."""
    return batch_invariant_matmul(weight, x.T).T


def linear_backward_values(grad_out: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``grad_out @ weight`` computed batch-invariantly."""
    return batch_invariant_matmul(weight.T, grad_out.T).T


# --------------------------------------------------------------------- im2col
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def conv_geometry(
    h: int, w: int, kernel, stride: int, padding: int
) -> Tuple[int, int, int]:
    """``(out_h, out_w, out_h * out_w)`` of a convolution window.

    ``kernel`` is a single size or a ``(kh, kw)`` pair.  The third element is
    the ``L`` (flattened spatial) extent of the im2col GEMM formulation
    shared by the exact and the approximate convolutions.
    """
    kh, kw = kernel if isinstance(kernel, tuple) else (kernel, kernel)
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    return out_h, out_w, out_h * out_w


#: the patch-matrix layouts :func:`im2col` writes, and the axis permutation
#: that views each as ``(N, K, L)``: the per-example GEMMs and the fused
#: approximate kernels read ``(N, K, L)``; the training convolution's
#: whole-batch GEMMs read ``(N, L, K)`` rows and ``(K, N, L)`` columns
IM2COL_LAYOUTS = {"nkl": (0, 1, 2), "nlk": (0, 2, 1), "knl": (1, 0, 2)}


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
    layout: str = "nkl",
) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``, any strides.
    kernel:
        ``(kh, kw)`` window size.
    layout:
        ``"nkl"`` (default), ``"nlk"`` or ``"knl"``: the axis order of the
        C-contiguous result (see :data:`IM2COL_LAYOUTS`).

    Returns
    -------
    Array of shape ``(N, C * kh * kw, out_h * out_w)`` (``"nkl"``), or the
    same patches as ``(N, L, K)`` / ``(K, N, L)``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"invalid convolution geometry: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}"
        )
    perm = IM2COL_LAYOUTS[layout]
    kernels = native.BACKEND.kernels()
    if kernels is not None:
        nkl = (n, c * kh * kw, out_h * out_w)
        out = np.empty(tuple(nkl[axis] for axis in perm), dtype=np.float32)
        if kernels.im2col(x, kernel, stride, padding, out.transpose(perm)):
            return out
    cols = _im2col_numpy(x, kernel, stride, padding)
    return cols if layout == "nkl" else cols.transpose(perm).copy()


def _im2col_numpy(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """The numpy :func:`im2col` (``"nkl"`` layout): fallback and parity oracle."""
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")

    cols = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    return cols.reshape(n, c * kh * kw, out_h * out_w)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col` (accumulating overlapping patches).

    ``cols`` is the ``(N, K, L)`` patch matrix, any strides.
    """
    kernels = native.BACKEND.kernels()
    padded = None if kernels is None else kernels.col2im(cols, input_shape, kernel, stride, padding)
    if padded is None:
        padded = _col2im_numpy(cols, input_shape, kernel, stride, padding)
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def _col2im_numpy(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """The padded numpy :func:`col2im`: fallback and parity oracle."""
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    return padded


# ---------------------------------------------------------------- convolution
def _whole_batch_gemms(n: int, f: int, k: int, l: int) -> bool:
    """Whether the training convolution issues its own 2-D GEMMs.

    They are the ``np.matmul`` calls ``einsum(optimize=True)`` makes for these
    contractions, on the operands it builds.  With a singleton ``N``, ``F``,
    ``K`` or ``L`` einsum squeezes that axis and calls a different BLAS
    routine, so those shapes keep the einsum call itself.
    """
    return min(n, f, k, l) > 1


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    batch_invariant: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact convolution forward pass.

    Returns ``(output, saved)``, where ``saved`` is what
    :func:`conv2d_backward` needs: the im2col columns for batch-invariant
    passes, the input ``x`` itself for training passes
    (``batch_invariant=False``, batch-shaped anyway through BatchNorm and the
    batch-mean loss), which contract the whole batch in one GEMM
    ``rows(N*L, K) @ W(F, K).T`` and rebuild their columns in the backward
    pass instead of keeping the ``kh*kw``-times larger patch matrix alive.
    """
    n, _, h, w = x.shape
    f, _, kh, kw = weight.shape
    w_mat = weight.reshape(f, -1)  # (F, C*kh*kw)
    k = w_mat.shape[1]
    out_h, out_w, l = conv_geometry(h, w, (kh, kw), stride, padding)
    if batch_invariant:
        cols = im2col(x, (kh, kw), stride, padding)  # (N, C*kh*kw, L)
        # one (F, K) x (K, L) GEMM per example: the call shape is a constant
        # of the layer geometry, so each example's output is bitwise
        # independent of the batch size (see the module docstring)
        out = np.empty((n, f, l), dtype=np.float32)
        for i in range(n):
            out[i] = w_mat @ cols[i]
        saved = cols
    else:
        if _whole_batch_gemms(n, f, k, l):
            rows = im2col(x, (kh, kw), stride, padding, layout="nlk").reshape(n * l, k)
            # (N*L, F), viewed as (N, F, L): channels-last in memory
            out = np.matmul(rows, w_mat.T).reshape(n, l, f).transpose(0, 2, 1)
        else:
            out = np.einsum("fk,nkl->nfl", w_mat, im2col(x, (kh, kw), stride, padding), optimize=True)
        saved = x
    out += bias.reshape(1, f, 1)
    out = out.reshape(n, f, out_h, out_w)
    # the result is fresh float32; only a length-1 axis may carry a stride
    # other than the one numpy's copy gives it (einsum's singleton results)
    return (out.astype(np.float32) if 1 in out.shape else out), saved


def conv2d_backward(
    grad_out: np.ndarray,
    saved: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    with_param_grads: bool = True,
    batch_invariant: bool = True,
    with_input_grad: bool = True,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Backward pass of :func:`conv2d_forward`.

    ``saved`` is the forward pass's second result (the columns, or the input
    for ``batch_invariant=False``).  Returns ``(grad_input, grad_weight,
    grad_bias)``; with ``with_param_grads=False`` the parameter gradients are
    skipped (returned as ``None``) -- the attack-facing input-gradient path
    never reads them -- and with ``with_input_grad=False`` the input gradient
    is (a network's first layer in training: nothing reads the gradient of
    the batch).  Training passes issue the whole-batch GEMMs
    ``(cols(K, N*L) @ g(N*L, F)).T`` and ``g(N*L, F) @ W``, whose
    ``(N, K, L)``-viewed result :func:`col2im` reads in place.
    """
    n, f, out_h, out_w = grad_out.shape
    _, _, kh, kw = weight.shape
    grad_mat = grad_out.reshape(n, f, out_h * out_w)  # (N, F, L)
    w_mat = weight.reshape(f, -1)  # (F, K)
    k, l = w_mat.shape[1], out_h * out_w

    grad_weight = grad_bias = grad_cols = None
    if batch_invariant:
        cols = saved
        if with_param_grads:
            # parameter gradients reduce over the batch (training-only; no
            # batch invariance required) and keep the fused einsum path
            grad_weight = np.einsum("nfl,nkl->fk", grad_mat, cols, optimize=True)
        if with_input_grad:
            # the input gradient feeds the attacks' BPDA path: per-example
            # GEMMs of constant shape (K, F) x (F, L), batch-invariant like
            # the forward
            grad_cols = np.empty_like(cols)
            w_t = np.ascontiguousarray(w_mat.T)
            for i in range(len(grad_mat)):
                grad_cols[i] = w_t @ grad_mat[i]
    elif _whole_batch_gemms(n, f, k, l):
        g_rows = grad_mat.transpose(0, 2, 1).reshape(n * l, f)
        if with_param_grads:
            cols = im2col(saved, (kh, kw), stride, padding, layout="knl").reshape(k, n * l)
            grad_weight = np.matmul(cols, g_rows).T
        if with_input_grad:
            grad_cols = np.matmul(g_rows, w_mat).reshape(n, l, k).transpose(0, 2, 1)
    else:
        cols = im2col(saved, (kh, kw), stride, padding)
        if with_param_grads:
            grad_weight = np.einsum("nfl,nkl->fk", grad_mat, cols, optimize=True)
        if with_input_grad:
            grad_cols = np.einsum("fk,nfl->nkl", w_mat, grad_mat, optimize=True)
    if with_param_grads:
        grad_weight = grad_weight.reshape(weight.shape)
        grad_bias = grad_out.sum(axis=(0, 2, 3))
    # copies: the cropped col2im view becomes C-contiguous (the reductions
    # downstream sum in memory order), and the small weight gradient's
    # length-1 axes get the strides a copy gives them
    grad_input = None
    if grad_cols is not None:
        grad_input = col2im(grad_cols, x_shape, (kh, kw), stride, padding).astype(np.float32)
    return (
        grad_input,
        grad_weight.astype(np.float32) if grad_weight is not None else None,
        grad_bias.astype(np.float32, copy=False) if grad_bias is not None else None,
    )


# -------------------------------------------------------------------- pooling
def _native_pool(kernel: int, stride: int):
    """The compiled kernels when they serve this pool (2x2, stride 2), else ``None``."""
    return native.BACKEND.kernels() if (kernel, stride) == (2, 2) else None


def maxpool2d_forward(
    x: np.ndarray, kernel: int = 2, stride: int = 2
) -> Tuple[np.ndarray, np.ndarray]:
    """Max pooling forward pass; returns ``(output, argmax_indices)``.

    ``argmax_indices`` is ``(N*C, out_h*out_w)``: each window's first
    maximum (its first NaN, if any), as ``np.argmax`` picks it.
    """
    kernels = _native_pool(kernel, stride)
    pooled = None if kernels is None else kernels.maxpool2x2_forward(x)
    return pooled if pooled is not None else _maxpool2d_forward_numpy(x, kernel, stride)


def _maxpool2d_forward_numpy(
    x: np.ndarray, kernel: int, stride: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The numpy :func:`maxpool2d_forward`: fallback and parity oracle."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    # view patches via im2col over each channel independently
    cols = _im2col_numpy(x.reshape(n * c, 1, h, w), (kernel, kernel), stride, 0)
    cols = cols.reshape(n * c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=1)  # (N*C, L)
    out = np.take_along_axis(cols, argmax[:, np.newaxis, :], axis=1).squeeze(1)
    return out.reshape(n, c, out_h, out_w).astype(np.float32), argmax


def maxpool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int = 2,
    stride: int = 2,
) -> np.ndarray:
    """Backward pass of :func:`maxpool2d_forward`."""
    kernels = _native_pool(kernel, stride)
    grad_input = None if kernels is None else kernels.maxpool2x2_backward(grad_out, argmax, x_shape)
    if grad_input is None:
        grad_input = _maxpool2d_backward_numpy(grad_out, argmax, x_shape, kernel, stride)
    return grad_input


def _maxpool2d_backward_numpy(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """The numpy :func:`maxpool2d_backward`: fallback and parity oracle."""
    n, c, h, w = x_shape
    _, _, out_h, out_w = grad_out.shape
    grad_cols = np.zeros((n * c, kernel * kernel, out_h * out_w), dtype=np.float32)
    grad_flat = grad_out.reshape(n * c, out_h * out_w)
    np.put_along_axis(grad_cols, argmax[:, np.newaxis, :], grad_flat[:, np.newaxis, :], axis=1)
    grad_input = _col2im_numpy(grad_cols, (n * c, 1, h, w), (kernel, kernel), stride, 0)
    return grad_input.reshape(n, c, h, w).astype(np.float32)


# ---------------------------------------------------------------- elementwise
def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b``: numpy's bytes and result layout.

    A float32 ``a`` times a float32 or bool ``b`` of its shape takes the
    compiled pass, which also serves operands of different layouts (a
    gradient and a channels-last activation) at contiguous speed.
    """
    kernels = native.BACKEND.kernels()
    product = None if kernels is None else kernels.multiply(a, b)
    return product if product is not None else a * b


# ------------------------------------------------------------- batch norm
def batchnorm_statistics(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel ``(mean, var)`` of an ``(N, C, H, W)`` training batch.

    These are numpy's ``mean`` and ``var`` over ``(0, 2, 3)``.  A
    channels-last batch (a training convolution's output) takes the compiled
    pass, which sums in the order numpy sums that layout in.
    """
    kernels = native.BACKEND.kernels()
    stats = None if kernels is None else kernels.channel_stats(x)
    return stats if stats is not None else (x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3)))


def batchnorm_normalize(
    x: np.ndarray, mean: np.ndarray, std: np.ndarray, gamma: np.ndarray, beta: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(x_hat, out)`` with ``x_hat = (x - mean) / std`` and ``out = gamma * x_hat + beta``.

    ``mean``, ``std``, ``gamma`` and ``beta`` are per-channel ``(C,)`` vectors.
    """
    kernels = native.BACKEND.kernels()
    done = None if kernels is None else kernels.bn_normalize(x, mean, std, gamma, beta)
    if done is not None:
        return done
    x_hat = (x - mean.reshape(1, -1, 1, 1)) / std.reshape(1, -1, 1, 1)
    out = gamma.reshape(1, -1, 1, 1) * x_hat + beta.reshape(1, -1, 1, 1)
    return x_hat, out.astype(np.float32, copy=False)


def batchnorm_input_grad(grad_xhat: np.ndarray, x_hat: np.ndarray, std: np.ndarray) -> np.ndarray:
    """The training-mode BatchNorm input gradient, from ``grad_xhat = grad_out * gamma``.

    The two per-channel means stay numpy reductions; the compiled pass does
    the elementwise rest.
    """
    m1 = grad_xhat.mean(axis=(0, 2, 3), keepdims=True)
    m2 = multiply(grad_xhat, x_hat).mean(axis=(0, 2, 3), keepdims=True)
    kernels = native.BACKEND.kernels()
    grad = None
    if kernels is not None:
        grad = kernels.bn_backward(grad_xhat, x_hat, m1.reshape(-1), m2.reshape(-1), std)
    if grad is None:
        grad = (grad_xhat - m1 - x_hat * m2) / std.reshape(1, -1, 1, 1)
    return grad.astype(np.float32, copy=False)


# ---------------------------------------------------------------- activations
def relu_forward(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """ReLU forward; returns ``(output, mask)``."""
    mask = x > 0
    return (x * mask).astype(np.float32, copy=False), mask


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """ReLU backward, and QuantReLU's: the gradient times the forward's mask."""
    return multiply(grad_out, mask).astype(np.float32, copy=False)


def row_sums(a: np.ndarray) -> np.ndarray:
    """Per-row sums of a 2D array, bitwise independent of the row count.

    ``a.sum(axis=-1)`` lets numpy pick a reduction strategy based on the
    *outer* dimension, so the same row can sum to different bits inside a
    batch-8 array than alone -- one 1D reduction per row always takes one
    code path.  (Order-exact reductions -- ``max``, ``argmax``, ``argsort``
    -- don't need this: only floating-point *accumulation* is order-
    sensitive.)
    """
    out = np.empty(a.shape[0], dtype=a.dtype)
    for i in range(a.shape[0]):
        out[i] = a[i].sum()
    return out


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (batch-invariant along the class axis)."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    if e.ndim == 2 and axis in (-1, 1):
        denominator = row_sums(e)[:, np.newaxis]
    else:  # pragma: no cover - no 2D class axis to stabilise
        denominator = e.sum(axis=axis, keepdims=True)
    return (e / denominator).astype(np.float32)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    z = logits - logits.max(axis=axis, keepdims=True)
    return (z - np.log(np.exp(z).sum(axis=axis, keepdims=True))).astype(np.float32)
