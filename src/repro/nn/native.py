"""Compiled kernels: conv/pool data movement, training-step elementwise
passes and the approximate GEMM.

Training the exact and DQ baselines is mostly data movement and
elementwise work around GEMMs whose bits are fixed; evaluating the
approximate models is mostly the emulated multiplier's GEMM.  This module
carries small C kernels for them, compiled on first use with the system C
compiler into one library and loaded with :mod:`ctypes`:

* ``repro_im2col`` -- patches of an ``(N, C, H, W)`` input of any strides
  into a patch matrix of any strides (the ``(N, K, L)``, ``(N, L, K)`` and
  ``(K, N, L)`` layouts of :func:`repro.nn.functional.im2col`);
* ``repro_col2im`` -- the scatter-add of a patch matrix of any strides into a
  zeroed padded image, adding each pixel's taps in ``col2im``'s ``(i, j)``
  order, starting from ``+0.0``;
* ``repro_maxpool2x2_forward`` / ``_backward`` -- 2x2/stride-2 max pooling
  with ``np.argmax``'s first-max/first-NaN rule and the backward pass's
  ``0.0 + g`` scatter;
* ``repro_channel_stats`` -- BatchNorm's training mean and variance of a
  channels-last batch, folded in the order numpy's reductions sum it;
* ``repro_bn_normalize`` / ``repro_bn_backward``, ``repro_quant_relu`` and
  ``repro_multiply`` / ``repro_mask_multiply`` -- single elementwise passes
  for BatchNorm, the quantised ReLU and a product of two layouts, writing
  the layout numpy's result would have;
* ``repro_lut_gemm`` -- the approximate GEMM of
  :class:`repro.arith.kernels.FusedLutGemmKernel`: it decodes each activation
  as :func:`~repro.arith.float_format.operand_codes` does and folds
  signed-product table entries scaled by ``2**(exponent sum)`` over K.

Every kernel moves, adds or multiplies exactly what its numpy reference
does (:mod:`repro.nn.functional`, :class:`~repro.arith.kernels.FallbackGemmKernel`),
in the same order, so results are bit-identical to it (``tests/test_native.py``
and ``tests/test_kernels.py`` prove it byte for byte; where two NaNs meet,
which payload survives is the compiler's choice of operand order).
The build uses ``-O3 -fPIC -ffp-contract=off``: no FMA contraction, no
fast-math and no ``-march=native``, so the library does not depend on the
build machine's vector extensions for its numerics.  The source is two
translation units (:data:`UNITS`) that compile concurrently and link into
one library, which halves a cold build's wall on two cores.

Build and cache: the library lives in ``$REPRO_DA_CACHE/native/`` (default
``~/.cache/repro-da/native``) under a name that digests the C source, the
compiler flags and the compiler's version, so an edited kernel or a new
compiler builds a fresh library while the old one stays valid for whoever
still uses it.  The build runs under a :class:`~repro.parallel.locks.FileLock`
and publishes through :func:`~repro.parallel.locks.atomic_path`: processes
racing for a cold cache compile once and all load the same file.  A
published library that fails to load is deleted and rebuilt once.

Fallback: with no ``cc`` on ``PATH``, a failed build or load, or the
``kernel.build_fail`` fault point firing at key ``native:<DIGEST>``, the
process warns once, counts ``NATIVE_STATS.fallbacks``, keeps the numpy
conv/pool/BatchNorm/activation functions and gives approximate layers the
reference GEMM kernel -- the same bytes, only slower.  The process resolves
the backend once (:data:`BACKEND`); the parallel engine resolves it before
it forks a pool, so workers inherit the loaded library (or the fallback
decision).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
import warnings
from pathlib import Path
from time import perf_counter
from typing import Optional, Tuple

import numpy as np

from repro.counters import ProcessCounters

#: declarations both translation units start with
_COMMON = r"""
#include <float.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "float arithmetic here must round to float at every step"
#endif

typedef ptrdiff_t idx;

#define INLINE static inline __attribute__((always_inline))

/* Elementwise passes over a 4-D index space d[0..3], outermost first.
   Operand k's element strides along those axes are s[4k .. 4k+3] (0 where
   it broadcasts, as a per-channel vector does).  EACH_ROW runs its last
   argument for every row of the innermost axis, with o[k] the offset of
   operand k's row.  Every pass computes per element the float32
   operations of its numpy expression in repro.nn.functional, in the same
   order, so its bytes are numpy's. */
#define EACH_ROW(d, s, nops, ...)                                              \
    do {                                                                       \
        idx i0, i1, i2, k, o[nops];                                            \
        for (i0 = 0; i0 < d[0]; i0++)                                          \
            for (i1 = 0; i1 < d[1]; i1++) {                                    \
                for (k = 0; k < nops; k++)                                     \
                    o[k] = i0 * s[4 * k] + i1 * s[4 * k + 1];                  \
                for (i2 = 0; i2 < d[2]; i2++) {                                \
                    __VA_ARGS__;                                               \
                    for (k = 0; k < nops; k++) o[k] += s[4 * k + 2];           \
                }                                                              \
            }                                                                  \
    } while (0)
"""

#: the kernels, in two translation units of about equal compile time:
#: they compile concurrently and link into one library
UNITS = (
    _COMMON
    + r"""
/* Output indices o in [*lo, *hi) whose tap o*stride + t - pad lies in
   [0, size): the rest of the range reads zero padding. */
static void valid_range(idx out, idx size, idx stride, idx t, idx pad, idx *lo, idx *hi)
{
    idx a = pad - t;
    idx b = size - 1 + pad - t;
    idx l = a > 0 ? (a + stride - 1) / stride : 0;
    idx h = b >= 0 ? b / stride + 1 : 0;
    if (h > out) h = out;
    if (l > h) l = h;
    *lo = l;
    *hi = h;
}

/* dst[j*dld + i] = src[i*sld + j] for a rows x cols matrix, in 64 x 16
   blocks of 4x4 register tiles where SSE2 exists: moves only, bits kept. */
static void transpose(const float *restrict src, idx rows, idx cols, idx sld,
                      float *restrict dst, idx dld)
{
    idx i, j, i0, i1, j0, j1;
    for (i0 = 0; i0 < rows; i0 += 64) {
        i1 = i0 + 64 < rows ? i0 + 64 : rows;
        for (j0 = 0; j0 < cols; j0 += 16) {
            j1 = j0 + 16 < cols ? j0 + 16 : cols;
            i = i0;
#if defined(__SSE2__)
            for (; i + 4 <= i1; i += 4) {
                for (j = j0; j + 4 <= j1; j += 4) {
                    __m128 r0 = _mm_loadu_ps(src + i * sld + j);
                    __m128 r1 = _mm_loadu_ps(src + (i + 1) * sld + j);
                    __m128 r2 = _mm_loadu_ps(src + (i + 2) * sld + j);
                    __m128 r3 = _mm_loadu_ps(src + (i + 3) * sld + j);
                    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
                    _mm_storeu_ps(dst + j * dld + i, r0);
                    _mm_storeu_ps(dst + (j + 1) * dld + i, r1);
                    _mm_storeu_ps(dst + (j + 2) * dld + i, r2);
                    _mm_storeu_ps(dst + (j + 3) * dld + i, r3);
                }
                for (; j < j1; j++) {
                    dst[j * dld + i] = src[i * sld + j];
                    dst[j * dld + i + 1] = src[(i + 1) * sld + j];
                    dst[j * dld + i + 2] = src[(i + 2) * sld + j];
                    dst[j * dld + i + 3] = src[(i + 3) * sld + j];
                }
            }
#endif
            for (; i < i1; i++)
                for (j = j0; j < j1; j++) dst[j * dld + i] = src[i * sld + j];
        }
    }
}

/* The taps of one C-contiguous (c, h, w) image: tap k's row of positions
   goes to o[k*ok ...], positions contiguous; +0.0 outside the image. */
INLINE void im2col_image(const float *restrict img, idx c, idx h, idx w, idx kh, idx kw,
                         idx stride, idx pad, idx oh_n, idx ow_n, const idx *lo, const idx *hi,
                         float *restrict o, idx ok)
{
    idx ci, i, j, oh, t, k = 0;
    for (ci = 0; ci < c; ci++)
        for (i = 0; i < kh; i++)
            for (j = 0; j < kw; j++, k++)
                for (oh = 0; oh < oh_n; oh++) {
                    idx ih = oh * stride + i - pad;
                    float *row = o + k * ok + oh * ow_n;
                    const float *s;
                    if (ih < 0 || ih >= h) {
                        memset(row, 0, (size_t)ow_n * sizeof(float));
                        continue;
                    }
                    s = img + (ci * h + ih) * w + lo[j] * stride + j - pad;
                    for (t = 0; t < lo[j]; t++) row[t] = 0.0f;
                    for (t = lo[j]; t < hi[j]; t++) row[t] = s[(t - lo[j]) * stride];
                    for (t = hi[j]; t < ow_n; t++) row[t] = 0.0f;
                }
}

/* Patch extraction.  x is (n, c, h, w) with element strides sn..sw; tap
   k = (ci*kh + i)*kw + j of output position l = oh*ow_n + ow of image ni goes
   to out[ni*on + k*ok + l*ol]; taps outside the image write +0.0.  Each
   image is first made C-contiguous (a transpose for channels-last inputs),
   its taps are written in rows of positions, and the (N, L, K) layout gets
   them through a transpose.  Returns nonzero when out's strides are none of
   the three layouts or scratch memory runs out (nothing useful written). */
int repro_im2col(const float *restrict x, idx n, idx c, idx h, idx w,
                 idx sn, idx sc, idx sh, idx sw, idx kh, idx kw, idx stride, idx pad,
                 float *restrict out, idx on, idx ok, idx ol)
{
    idx oh_n = (h + 2 * pad - kh) / stride + 1;
    idx ow_n = (w + 2 * pad - kw) / stride + 1;
    idx l_n = oh_n * ow_n, k_n = c * kh * kw;
    idx lo[kw], hi[kw], j, ni, ci, y, z;
    int contiguous = sw == 1 && sh == w && sc == h * w;
    int rows = ok == 1 && ol == k_n;
    float *image = NULL, *cols = NULL;
    if (ol != 1 && !rows) return 1;
    if (!contiguous && !(image = malloc((size_t)(c * h * w) * sizeof(float)))) return 1;
    if (rows && !(cols = malloc((size_t)(k_n * l_n) * sizeof(float)))) {
        free(image);
        return 1;
    }
    for (j = 0; j < kw; j++) valid_range(ow_n, w, stride, j, pad, &lo[j], &hi[j]);
    for (ni = 0; ni < n; ni++) {
        const float *img = x + ni * sn;
        if (!contiguous) {
            if (sc == 1 && sh == w * sw)
                transpose(img, h * w, c, sw, image, h * w);
            else
                for (ci = 0; ci < c; ci++)
                    for (y = 0; y < h; y++)
                        for (z = 0; z < w; z++)
                            image[(ci * h + y) * w + z] = img[ci * sc + y * sh + z * sw];
            img = image;
        }
        if (rows) {
            if (stride == 1)
                im2col_image(img, c, h, w, kh, kw, 1, pad, oh_n, ow_n, lo, hi, cols, l_n);
            else
                im2col_image(img, c, h, w, kh, kw, stride, pad, oh_n, ow_n, lo, hi, cols, l_n);
            transpose(cols, k_n, l_n, l_n, out + ni * on, k_n);
        } else if (stride == 1) {
            im2col_image(img, c, h, w, kh, kw, 1, pad, oh_n, ow_n, lo, hi, out + ni * on, ok);
        } else {
            im2col_image(img, c, h, w, kh, kw, stride, pad, oh_n, ow_n, lo, hi, out + ni * on, ok);
        }
    }
    free(image);
    free(cols);
    return 0;
}

/* Adds one image's taps (tap k of position l at s[k*sk + l*sl]) into its
   zeroed padded planes, tap by tap: every pixel gets its taps in (i, j)
   order, as the numpy col2im adds them. */
INLINE void col2im_image(const float *restrict s, idx sk, idx sl, float *restrict img,
                         idx c, idx hp, idx wp, idx kh, idx kw, idx stride, idx oh_n, idx ow_n)
{
    idx ci, i, j, oh, ow, k = 0;
    for (ci = 0; ci < c; ci++)
        for (i = 0; i < kh; i++)
            for (j = 0; j < kw; j++, k++)
                for (oh = 0; oh < oh_n; oh++) {
                    float *d = img + (ci * hp + oh * stride + i) * wp + j;
                    const float *u = s + k * sk + oh * ow_n * sl;
                    for (ow = 0; ow < ow_n; ow++) d[ow * stride] += u[ow * sl];
                }
}

/* Scatter-add of a patch matrix (element strides sn, sk, sl over (n, K, L))
   into the C-contiguous padded image dst (n, c, h + 2*pad, w + 2*pad), which
   this zeroes first; each pixel sums its taps in (i, j) order from +0.0.  A
   source in the (N, L, K) layout (the training GEMM's result) is transposed
   image by image first, so the adds run along contiguous rows. */
void repro_col2im(const float *restrict src, idx sn, idx sk, idx sl,
                  idx n, idx c, idx h, idx w, idx kh, idx kw, idx stride, idx pad,
                  float *restrict dst)
{
    idx hp = h + 2 * pad, wp = w + 2 * pad;
    idx oh_n = (hp - kh) / stride + 1;
    idx ow_n = (wp - kw) / stride + 1;
    idx l_n = oh_n * ow_n, k_n = c * kh * kw, ni;
    float *cols = NULL;
    if (sk == 1 && sl == k_n && l_n > 1) cols = malloc((size_t)(k_n * l_n) * sizeof(float));
    for (ni = 0; ni < n; ni++) {
        float *img = dst + ni * c * hp * wp;
        memset(img, 0, (size_t)(c * hp * wp) * sizeof(float));
        if (cols) {
            transpose(src + ni * sn, l_n, k_n, k_n, cols, l_n);
            if (stride == 1)
                col2im_image(cols, l_n, 1, img, c, hp, wp, kh, kw, 1, oh_n, ow_n);
            else
                col2im_image(cols, l_n, 1, img, c, hp, wp, kh, kw, stride, oh_n, ow_n);
        } else if (sl == 1 && stride == 1) {
            col2im_image(src + ni * sn, sk, 1, img, c, hp, wp, kh, kw, 1, oh_n, ow_n);
        } else {
            col2im_image(src + ni * sn, sk, sl, img, c, hp, wp, kh, kw, stride, oh_n, ow_n);
        }
    }
    free(cols);
}

/* 2x2/stride-2 max pooling of x (n, c, h, w; element strides sn..sw) into
   the C-contiguous out (n, c, oh, ow) and arg (n*c, oh*ow): window taps in
   (0,0) (0,1) (1,0) (1,1) order, the first maximum wins and the first NaN
   stops the scan -- np.argmax's rule. */
void repro_maxpool2x2_forward(const float *restrict x, idx n, idx c, idx h, idx w,
                              idx sn, idx sc, idx sh, idx sw,
                              float *restrict out, int64_t *restrict arg)
{
    idx oh_n = (h - 2) / 2 + 1, ow_n = (w - 2) / 2 + 1;
    idx ni, ci, oh, ow;
    for (ni = 0; ni < n; ni++)
        for (ci = 0; ci < c; ci++) {
            const float *plane = x + ni * sn + ci * sc;
            idx base = (ni * c + ci) * oh_n * ow_n;
            for (oh = 0; oh < oh_n; oh++)
                for (ow = 0; ow < ow_n; ow++) {
                    const float *p = plane + 2 * oh * sh + 2 * ow * sw;
                    const float tap[4] = {p[0], p[sw], p[sh], p[sh + sw]};
                    float best = tap[0];
                    int64_t at = 0, t;
                    /* branch-free: a tap wins when it is not <= the best so
                       far (so a NaN wins), unless the best is already NaN */
                    for (t = 1; t < 4; t++) {
                        int take = (best == best) & !(tap[t] <= best);
                        best = take ? tap[t] : best;
                        at = take ? t : at;
                    }
                    out[base + oh * ow_n + ow] = best;
                    arg[base + oh * ow_n + ow] = at;
                }
        }
}

/* Backward of the 2x2/stride-2 max pool: dx (n, c, h, w), C-contiguous, is
   zeroed and each window's argmax tap receives 0.0 + g.  Returns the number
   of argmax entries outside [0, 4) (their taps are skipped). */
idx repro_maxpool2x2_backward(const float *restrict g, idx gn, idx gc, idx gh, idx gw,
                              const int64_t *restrict arg, idx n, idx c, idx h, idx w,
                              float *restrict dx)
{
    idx oh_n = (h - 2) / 2 + 1, ow_n = (w - 2) / 2 + 1;
    idx ni, ci, oh, ow, p, bad = 0;
    for (ni = 0; ni < n; ni++)
        for (ci = 0; ci < c; ci++) {
            float *plane = dx + (ni * c + ci) * h * w;
            const float *gp = g + ni * gn + ci * gc;
            const int64_t *a = arg + (ni * c + ci) * oh_n * ow_n;
            for (p = 0; p < h * w; p++) plane[p] = 0.0f;
            for (oh = 0; oh < oh_n; oh++)
                for (ow = 0; ow < ow_n; ow++) {
                    int64_t t = a[oh * ow_n + ow];
                    if (t < 0 || t > 3) {
                        bad++;
                        continue;
                    }
                    plane[(2 * oh + (t >> 1)) * w + 2 * ow + (t & 1)] = 0.0f + gp[oh * gh + ow * gw];
                }
        }
    return bad;
}

/* QuantReLU forward: mask = (0 < x < 1), out = rint(clip(x, 0, 1) * L) / L.
   The clip is numpy's: c = 1 < lo ? 1 : lo with lo = 0 > v ? 0 : v keeps
   -0.0 and NaN, as do SSE's maxps(0, v) and minps(1, lo).  q = c * L lies
   in [0, L] with L < 2**23, where adding and taking back 2**23 rounds half
   to even as np.rint does; q <= 0 (+-0.0) and NaN pass unrounded.
   Operands: x, out, mask. */
void repro_quant_relu(const idx *d, const idx *s, const float *restrict x, float *restrict out,
                      uint8_t *restrict mask, float levels)
{
    EACH_ROW(d, s, 3, {
        const float *xr = x + o[0];
        float *outr = out + o[1];
        uint8_t *maskr = mask + o[2];
        idx t = 0, sx = s[3], so = s[7], sm = s[11];
#if defined(__SSE2__)
        if (sx == 1 && so == 1) {
            const __m128 zero = _mm_setzero_ps(), one = _mm_set1_ps(1.0f);
            const __m128 big = _mm_set1_ps(8388608.0f), l = _mm_set1_ps(levels);
            for (; t + 4 <= d[3]; t += 4) {
                __m128 q = _mm_mul_ps(_mm_min_ps(one, _mm_max_ps(zero, _mm_loadu_ps(xr + t))), l);
                __m128 r = _mm_sub_ps(_mm_add_ps(q, big), big);
                __m128 take = _mm_cmpgt_ps(q, zero);
                q = _mm_or_ps(_mm_and_ps(take, r), _mm_andnot_ps(take, q));
                _mm_storeu_ps(outr + t, _mm_div_ps(q, l));
            }
        }
#endif
        for (; t < d[3]; t++) {
            float v = xr[t * sx];
            float low = 0.0f > v ? 0.0f : v;
            float q = (1.0f < low ? 1.0f : low) * levels;
            float r = (q + 8388608.0f) - 8388608.0f;
            outr[t * so] = (q > 0.0f ? r : q) / levels;
        }
        for (t = 0; t < d[3]; t++) maskr[t * sm] = (xr[t * sx] > 0.0f) & (xr[t * sx] < 1.0f);
    });
}

/* out = a * b for a float32 a and a float32 or 0/1 uint8 (numpy bool) b:
   BatchNorm's backward products, and the (Quant)ReLU backward pass.
   Operands: a, b, out. */
#define MULTIPLY_PASS(name, T)                                                 \
    void repro_##name(const idx *d, const idx *s, const float *restrict a, const T *restrict b, \
                      float *restrict out)                                     \
    {                                                                          \
        EACH_ROW(d, s, 3, {                                                    \
            idx t;                                                             \
            for (t = 0; t < d[3]; t++)                                         \
                out[o[2] + t * s[11]] = a[o[0] + t * s[3]] * (float)b[o[1] + t * s[7]]; \
        });                                                                    \
    }
MULTIPLY_PASS(multiply, float)
MULTIPLY_PASS(mask_multiply, uint8_t)
""",
    _COMMON
    + r"""
/* Per-channel batch statistics of a dense channels-last x: m rows (the
   (n, h, w) positions in memory order) of c channels.  numpy's
   mean/var over (0, 2, 3) sum such an array row by row, each channel a
   float32 fold from +0.0, and divide by the count in double: mean is that
   fold / m, var the fold of (x - mean)^2 / m. */
void repro_channel_stats(const float *restrict x, idx m, idx c,
                         float *restrict mean, float *restrict var)
{
    idx r, ci;
    for (ci = 0; ci < c; ci++) mean[ci] = var[ci] = 0.0f;
    for (r = 0; r < m; r++)
        for (ci = 0; ci < c; ci++) mean[ci] += x[r * c + ci];
    for (ci = 0; ci < c; ci++) mean[ci] = (float)((double)mean[ci] / (double)m);
    for (r = 0; r < m; r++)
        for (ci = 0; ci < c; ci++) {
            float d = x[r * c + ci] - mean[ci];
            var[ci] += d * d;
        }
    for (ci = 0; ci < c; ci++) var[ci] = (float)((double)var[ci] / (double)m);
}

/* BatchNorm normalise and scale-shift of a row of n elements: x_hat =
   (x - mean) / std and out = gamma * x_hat + beta, the four per-channel
   vectors read with stride sp (1 where the row runs along channels). */
INLINE void bn_normalize_row(idx n, const float *restrict x, const float *restrict mean,
                             const float *restrict std, const float *restrict gamma,
                             const float *restrict beta, idx sp, float *restrict x_hat,
                             float *restrict out)
{
    idx t;
    for (t = 0; t < n; t++) {
        float h = (x[t] - mean[t * sp]) / std[t * sp];
        x_hat[t] = h;
        out[t] = gamma[t * sp] * h + beta[t * sp];
    }
}

/* Operands: x, mean, std, gamma, beta, x_hat, out; x, x_hat and out share
   one layout, so their rows are contiguous. */
void repro_bn_normalize(const idx *d, const idx *s, const float *restrict x,
                        const float *restrict mean, const float *restrict std,
                        const float *restrict gamma, const float *restrict beta,
                        float *restrict x_hat, float *restrict out)
{
    EACH_ROW(d, s, 7,
             if (s[7])
                 bn_normalize_row(d[3], x + o[0], mean + o[1], std + o[2], gamma + o[3],
                                  beta + o[4], 1, x_hat + o[5], out + o[6]);
             else
                 bn_normalize_row(d[3], x + o[0], mean + o[1], std + o[2], gamma + o[3],
                                  beta + o[4], 0, x_hat + o[5], out + o[6]));
}

/* BatchNorm backward, training mode, the elementwise part: out = (gx - m1
   - x_hat * m2) / std with m1, m2 the per-channel means numpy reduced.
   Operands: gx, x_hat, m1, m2, std, out; the three per-channel vectors
   share their strides. */
void repro_bn_backward(const idx *d, const idx *s, const float *restrict gx,
                       const float *restrict x_hat, const float *restrict m1,
                       const float *restrict m2, const float *restrict std, float *restrict out)
{
    EACH_ROW(d, s, 6, {
        idx t;
        for (t = 0; t < d[3]; t++) {
            idx c = o[2] + t * s[11];
            out[o[5] + t * s[23]] =
                ((gx[o[0] + t * s[3]] - m1[c]) - x_hat[o[1] + t * s[7]] * m2[c]) / std[c];
        }
    });
}

/* float_format.operand_codes of one float32: sign and truncated fraction
   pack into (fraction >> (23 - fb)) | sign << fb, zeros and subnormals into
   code 2 << fb with exponent 0; inf/NaN keep exponent 128. */
INLINE int32_t operand_code(float v, int fb, int32_t *e)
{
    uint32_t b;
    memcpy(&b, &v, sizeof b);
    if (!(b & 0x7F800000u)) {
        *e = 0;
        return 2 << fb;
    }
    *e = (int32_t)((b >> 23) & 0xFF) - 127;
    return (int32_t)(((b & 0x7FFFFFu) >> (23 - fb)) | ((b >> 31) << fb));
}

/* 2**e for the float whose exponent field is s + (e << 23): exact while the
   sum is a normal exponent. */
INLINE float exponent_bits(int32_t s, int32_t e)
{
    uint32_t b = (uint32_t)s + ((uint32_t)e << 23);
    float f;
    memcpy(&f, &b, sizeof f);
    return f;
}

/* One k of m positions: acc[j*f_n + fi] += table[row[j] + cb[fi]] *
   2**(ea[j] + eb[fi]), four positions per pass over f.  With normal set,
   every exponent sum is a normal float exponent and the power is built from
   its bits; otherwise it is read from pow2 (bias + sum). */
INLINE void lut_step(float *restrict acc, idx m, idx f_n, const int32_t *row, const int32_t *ea,
                     const int32_t *restrict cb, const int32_t *restrict eb,
                     const float *restrict table, const float *restrict pow2, idx bias, int normal)
{
#define SCALE(j) (normal ? (ea[j] + 127) * (1 << 23) : ea[j] + (int32_t)bias)
#define POW2(s, e) (normal ? exponent_bits(s, e) : pow2[(s) + (e)])
    idx j = 0, fi;
    for (; j + 4 <= m; j += 4) {
        const float *t0 = table + row[j], *t1 = table + row[j + 1];
        const float *t2 = table + row[j + 2], *t3 = table + row[j + 3];
        int32_t s0 = SCALE(j), s1 = SCALE(j + 1), s2 = SCALE(j + 2), s3 = SCALE(j + 3);
        float *a = acc + j * f_n;
        for (fi = 0; fi < f_n; fi++) {
            int32_t c = cb[fi], e = eb[fi];
            a[fi] += t0[c] * POW2(s0, e);
            a[f_n + fi] += t1[c] * POW2(s1, e);
            a[2 * f_n + fi] += t2[c] * POW2(s2, e);
            a[3 * f_n + fi] += t3[c] * POW2(s3, e);
        }
    }
    for (; j < m; j++) {
        const float *t = table + row[j];
        int32_t s = SCALE(j);
        float *a = acc + j * f_n;
        for (fi = 0; fi < f_n; fi++) a[fi] += t[cb[fi]] * POW2(s, eb[fi]);
    }
#undef SCALE
#undef POW2
}

/* Approximate GEMM through the signed-product table.  x is the (n, k, l)
   activation matrix (element strides sn, sk, sl); wcode and wexp are the
   weight's operand codes and exponents, C-contiguous (k, f).  Returns 1,
   writing nothing, when an activation and a weight exponent can sum outside
   [lo, hi] (where table * pow2 stops being one correctly rounded multiply),
   2 when scratch memory runs out, 3 for a weight code outside the table.
   Otherwise out[ni*on + fi*of + li*ol] is
   the float32 left fold from +0.0 over k of
   table[ca*side + cb] * pow2[bias + ea + eb], accumulated for a block of
   positions at a time so the inner loop runs along f.  Every extent is
   positive. */
int repro_lut_gemm(const float *restrict x, idx n, idx k_n, idx l_n, idx sn, idx sk, idx sl,
                   const int32_t *restrict wcode, const int32_t *restrict wexp, idx f_n,
                   const float *restrict table, int fb, const float *restrict pow2,
                   idx bias, idx lo, idx hi, float *restrict out, idx on, idx of, idx ol)
{
    idx side = (2 << fb) + 1, kl = k_n * l_n, block, ni, ki, li, l0, l1, fi, i;
    int32_t amin = 128, amax = -127, wmin = 128, wmax = -127, normal;
    int32_t *row = malloc((size_t)(n * kl) * sizeof(int32_t));
    int32_t *ea = malloc((size_t)(n * kl) * sizeof(int32_t));
    float *acc = NULL;
    int status = 2;
    if (!row || !ea) goto done;
    for (ni = 0; ni < n; ni++)
        for (ki = 0; ki < k_n; ki++)
            for (li = 0; li < l_n; li++) {
                i = (ni * k_n + ki) * l_n + li;
                row[i] = operand_code(x[ni * sn + ki * sk + li * sl], fb, &ea[i]) * (int32_t)side;
                amin = ea[i] < amin ? ea[i] : amin;
                amax = ea[i] > amax ? ea[i] : amax;
            }
    status = 3;
    for (i = 0; i < k_n * f_n; i++) {
        if (wcode[i] < 0 || wcode[i] >= side) goto done;
        wmin = wexp[i] < wmin ? wexp[i] : wmin;
        wmax = wexp[i] > wmax ? wexp[i] : wmax;
    }
    status = 1;
    if (amin + wmin < lo || amax + wmax > hi) goto done;
    normal = amin + wmin >= -126 && amax + wmax <= 127; /* every power normal */
    block = f_n < 2048 ? 2048 / f_n : 1;
    block = block < l_n ? block : l_n;
    status = 2;
    if (!(acc = malloc((size_t)(block * f_n) * sizeof(float)))) goto done;
    for (ni = 0; ni < n; ni++)
        for (l0 = 0; l0 < l_n; l0 += block) {
            l1 = l0 + block < l_n ? l0 + block : l_n;
            memset(acc, 0, (size_t)((l1 - l0) * f_n) * sizeof(float));
            for (ki = 0; ki < k_n; ki++) {
                const int32_t *cb = wcode + ki * f_n, *eb = wexp + ki * f_n;
                i = (ni * k_n + ki) * l_n + l0;
                if (normal)
                    lut_step(acc, l1 - l0, f_n, row + i, ea + i, cb, eb, table, pow2, bias, 1);
                else
                    lut_step(acc, l1 - l0, f_n, row + i, ea + i, cb, eb, table, pow2, bias, 0);
            }
            for (li = l0; li < l1; li++)
                for (fi = 0; fi < f_n; fi++)
                    out[ni * on + fi * of + li * ol] = acc[(li - l0) * f_n + fi];
        }
    status = 0;
done:
    free(row);
    free(ea);
    free(acc);
    return status;
}
""",
)

#: each unit's compiler flags (the link adds ``-shared``): no FMA
#: contraction, no fast-math, no host-specific ISA
CFLAGS = ("-O3", "-fPIC", "-ffp-contract=off")

#: digest of the kernels' source and flags; the ``kernel.build_fail`` fault
#: key is ``native:<DIGEST>`` (compiler-independent, so a chaos run's seeded
#: schedule fires on every platform alike)
DIGEST = hashlib.sha256("\0".join((*UNITS, *CFLAGS)).encode()).hexdigest()[:16]


#: elementwise passes (the BatchNorm and activation kernels) serve arrays of
#: at least this many elements: below it, numpy's passes over cached data
#: cost less than setting up a compiled call
ELEMENTWISE_MIN = 1 << 16


class NativeStats(ProcessCounters):
    """Process-level native-kernel counters: compiles and numpy fallbacks."""

    _FIELDS = ("builds", "fallbacks")


#: process-wide native-kernel counters (``/metrics``, run telemetry)
NATIVE_STATS = NativeStats()

_IDX = ctypes.c_ssize_t
_IDXS = ctypes.POINTER(_IDX)
_FLOATS = ctypes.POINTER(ctypes.c_float)
_INT32S = ctypes.POINTER(ctypes.c_int32)
_INT64S = ctypes.POINTER(ctypes.c_int64)
_DATA = ctypes.c_void_p

_SIGNATURES = {
    "repro_im2col": (ctypes.c_int, [_FLOATS] + [_IDX] * 12 + [_FLOATS] + [_IDX] * 3),
    "repro_col2im": (None, [_FLOATS] + [_IDX] * 11 + [_FLOATS]),
    "repro_maxpool2x2_forward": (None, [_FLOATS] + [_IDX] * 8 + [_FLOATS, _INT64S]),
    "repro_maxpool2x2_backward": (_IDX, [_FLOATS] + [_IDX] * 4 + [_INT64S] + [_IDX] * 4 + [_FLOATS]),
    "repro_lut_gemm": (
        ctypes.c_int,
        [_FLOATS] + [_IDX] * 6 + [_INT32S, _INT32S, _IDX, _FLOATS, ctypes.c_int, _FLOATS]
        + [_IDX] * 3 + [_FLOATS] + [_IDX] * 3,
    ),
    "repro_channel_stats": (None, [_FLOATS, _IDX, _IDX, _FLOATS, _FLOATS]),
    "repro_quant_relu": (None, [_IDXS, _IDXS] + [_DATA] * 3 + [ctypes.c_float]),
    "repro_multiply": (None, [_IDXS, _IDXS] + [_DATA] * 3),
    "repro_mask_multiply": (None, [_IDXS, _IDXS] + [_DATA] * 3),
    "repro_bn_normalize": (None, [_IDXS, _IDXS] + [_DATA] * 7),
    "repro_bn_backward": (None, [_IDXS, _IDXS] + [_DATA] * 6),
}


class NativeUnavailable(RuntimeError):
    """The kernels cannot be built or loaded here (no compiler, failed build)."""


def default_directory() -> Path:
    """``$REPRO_DA_CACHE/native`` (default ``~/.cache/repro-da/native``)."""
    root = os.environ.get("REPRO_DA_CACHE", Path.home() / ".cache" / "repro-da")
    return Path(root) / "native"


def _compiler() -> Tuple[str, str]:
    """``(path, version line)`` of the system ``cc``; raises when there is none."""
    cc = shutil.which("cc")
    if cc is None:
        raise NativeUnavailable("no C compiler (cc) on PATH")
    done = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=60)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise NativeUnavailable(f"{cc} --version failed")
    return cc, lines[0]


def library_path(directory: Path, compiler_version: str) -> Path:
    """Where the library built by ``compiler_version`` lives in ``directory``."""
    tag = hashlib.sha256(f"{DIGEST}\0{compiler_version}".encode()).hexdigest()[:16]
    return Path(directory) / f"kernels-{tag}.so"


def _compile(cc: str, library: Path) -> None:
    """Compile :data:`UNITS` concurrently and link them into ``library``.

    The sources and objects sit next to ``library`` and are removed after.
    """
    sources = [library.with_name(f"{library.name}.{i}.c") for i in range(len(UNITS))]
    objects = [source.with_suffix(".o") for source in sources]
    compiles = []
    try:
        for unit, source, obj in zip(UNITS, sources, objects):
            source.write_text(unit)
            compiles.append(
                subprocess.Popen(
                    [cc, *CFLAGS, "-c", "-o", str(obj), str(source)],
                    stderr=subprocess.PIPE,
                    text=True,
                )
            )
        for proc in compiles:
            _, stderr = proc.communicate(timeout=300)
            if proc.returncode != 0:
                raise NativeUnavailable(f"{cc} failed: {stderr.strip()[:500]}")
        done = subprocess.run(
            [cc, "-shared", "-o", str(library), *map(str, objects)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if done.returncode != 0:
            raise NativeUnavailable(f"{cc} failed: {done.stderr.strip()[:500]}")
    finally:
        for proc in compiles:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for leftover in (*sources, *objects):
            leftover.unlink(missing_ok=True)


def build_library(directory: Path, cc: str, compiler_version: str) -> Path:
    """Compile the kernels into ``directory`` unless published; returns the path.

    Racing processes serialise on a lock next to the library; the first
    compiles and publishes atomically, the rest find the file and skip.
    """
    from repro.obs import TRACER
    from repro.parallel.locks import FileLock, atomic_path

    path = library_path(directory, compiler_version)
    if path.exists():
        return path
    with FileLock(path.with_name(path.name + ".lock")):
        if path.exists():
            return path
        with TRACER.span("native.build", cat="native", digest=DIGEST, compiler=compiler_version) as span:
            start = perf_counter()
            with atomic_path(path, suffix=".so") as tmp:
                _compile(cc, tmp)
            span["seconds"] = round(perf_counter() - start, 4)
        NATIVE_STATS.builds += 1
    return path


class Kernels:
    """ctypes bindings of one loaded library.

    Each method checks dtype, alignment, strides and geometry before any
    pointer reaches C.  The conv/pool methods return ``None`` (or ``False``)
    where their kernel does not apply -- the caller then runs the numpy
    function instead; :meth:`lut_gemm` raises on operands outside its
    contract and returns ``None`` for calls its exponent window refuses.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._lib = ctypes.CDLL(str(self.path))
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(self._lib, name)
            fn.restype = restype
            fn.argtypes = argtypes

    @staticmethod
    def _usable(*arrays: np.ndarray) -> bool:
        """float32, aligned, element-multiple strides: what the kernels index."""
        return all(
            a.dtype == np.float32 and a.flags.aligned and all(s % 4 == 0 for s in a.strides)
            for a in arrays
        )

    @staticmethod
    def _strides(a: np.ndarray) -> Tuple[int, ...]:
        return tuple(s // a.itemsize for s in a.strides)

    @staticmethod
    def _floats(a: np.ndarray):
        return a.ctypes.data_as(_FLOATS)

    def im2col(
        self, x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int, out: np.ndarray
    ) -> bool:
        """Fill ``out`` with the patches of ``x``; False where the kernel does not apply.

        ``out`` is an ``(N, K, L)``-indexed view of a fresh C-contiguous array
        in one of the layouts of :data:`repro.nn.functional.IM2COL_LAYOUTS`.
        """
        n, c, h, w = x.shape
        kh, kw = kernel
        if not self._usable(x, out) or stride < 1 or padding < 0:
            return False
        l = ((h + 2 * padding - kh) // stride + 1) * ((w + 2 * padding - kw) // stride + 1)
        if out.shape != (n, c * kh * kw, l) or min(kh, kw, l) < 1:
            return False
        failed = self._lib.repro_im2col(
            self._floats(x), n, c, h, w, *self._strides(x), kh, kw, stride, padding,
            self._floats(out), *self._strides(out),
        )
        return not failed

    def col2im(
        self, cols: np.ndarray, input_shape, kernel: Tuple[int, int], stride: int, padding: int
    ) -> Optional[np.ndarray]:
        """The zeroed padded image with ``cols`` (``(N, K, L)``, any strides) added in."""
        n, c, h, w = input_shape
        kh, kw = kernel
        out_h = (h + 2 * padding - kh) // stride + 1 if stride >= 1 else 0
        out_w = (w + 2 * padding - kw) // stride + 1 if stride >= 1 else 0
        if (
            not self._usable(cols)
            or padding < 0
            or min(kh, kw, out_h, out_w) < 1
            or cols.shape != (n, c * kh * kw, out_h * out_w)
        ):
            return None
        padded = np.empty((n, c, h + 2 * padding, w + 2 * padding), dtype=np.float32)
        self._lib.repro_col2im(
            self._floats(cols), *self._strides(cols), n, c, h, w, kh, kw, stride, padding,
            self._floats(padded),
        )
        return padded

    def maxpool2x2_forward(self, x: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(output, argmax)`` of the 2x2/stride-2 max pool of ``x``."""
        n, c, h, w = x.shape
        if not self._usable(x) or h < 2 or w < 2:
            return None
        out = np.empty((n, c, (h - 2) // 2 + 1, (w - 2) // 2 + 1), dtype=np.float32)
        argmax = np.empty((n * c, out.shape[2] * out.shape[3]), dtype=np.int64)
        self._lib.repro_maxpool2x2_forward(
            self._floats(x), n, c, h, w, *self._strides(x),
            self._floats(out), argmax.ctypes.data_as(_INT64S),
        )
        return out, argmax

    def maxpool2x2_backward(
        self, grad_out: np.ndarray, argmax: np.ndarray, x_shape
    ) -> Optional[np.ndarray]:
        """The input gradient; ``None`` for any argmax index outside the window too."""
        n, c, h, w = x_shape
        if h < 2 or w < 2:
            return None
        pooled = (n, c, (h - 2) // 2 + 1, (w - 2) // 2 + 1)
        if (
            not self._usable(grad_out)
            or grad_out.shape != pooled
            or argmax.dtype != np.int64
            or not argmax.flags.c_contiguous
            or argmax.shape != (n * c, pooled[2] * pooled[3])
        ):
            return None
        grad = np.empty((n, c, h, w), dtype=np.float32)
        bad = self._lib.repro_maxpool2x2_backward(
            self._floats(grad_out), *self._strides(grad_out),
            argmax.ctypes.data_as(_INT64S), n, c, h, w, self._floats(grad),
        )
        return None if bad else grad

    def channel_stats(self, x: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(mean, var)`` over axes ``(0, 2, 3)`` of a dense channels-last ``x``.

        ``None`` unless ``x`` is float32 with ``C >= 2`` and channels-last
        strides (those of length-1 axes aside): other layouts reduce in
        another order.
        """
        n, c, h, w = x.shape
        if x.dtype != np.float32 or not x.flags.aligned or c < 2 or n * h * w == 0:
            return None
        dense = (h * w * c, 1, w * c, c)
        if any(size > 1 and stride != 4 * want for size, stride, want in zip(x.shape, x.strides, dense)):
            return None
        mean, var = np.empty(c, np.float32), np.empty(c, np.float32)
        self._lib.repro_channel_stats(self._floats(x), n * h * w, c, self._floats(mean), self._floats(var))
        return mean, var

    @staticmethod
    def _dense_order(a: np.ndarray) -> Optional[Tuple[int, ...]]:
        """``a``'s axes, outermost in memory first, if ``a`` is a transposed
        C-contiguous array of at most 4 axes, none of length 0 or 1."""
        if a.ndim > 4 or 0 in a.shape or 1 in a.shape or not a.flags.aligned:
            return None
        order = sorted(range(a.ndim), key=lambda axis: -a.strides[axis])
        step = a.itemsize
        for axis in reversed(order):
            if a.strides[axis] != step:
                return None
            step *= a.shape[axis]
        return tuple(order)

    @classmethod
    def _result_order(cls, *arrays: np.ndarray) -> Optional[Tuple[int, ...]]:
        """The memory order numpy gives an elementwise result over ``arrays``.

        That is their order where all agree, and C order where they disagree
        and one is C-contiguous.  ``None`` in every other case (an operand
        that is not dense, or has a length-1 axis), and for arrays smaller
        than :data:`ELEMENTWISE_MIN`: numpy runs there.
        """
        if arrays[0].size < ELEMENTWISE_MIN:
            return None
        orders = {cls._dense_order(a) for a in arrays}
        if None in orders:
            return None
        if len(orders) > 1:
            c_order = tuple(range(arrays[0].ndim))
            return c_order if c_order in orders else None
        return orders.pop()

    @staticmethod
    def _empty(shape: Tuple[int, ...], order: Tuple[int, ...], dtype) -> np.ndarray:
        """A fresh array of ``shape`` laid out in memory in ``order``."""
        if order == tuple(range(len(order))):
            return np.empty(shape, dtype)
        inverse = sorted(range(len(order)), key=order.__getitem__)
        return np.empty(tuple(shape[axis] for axis in order), dtype).transpose(inverse)

    def _elementwise(self, name: str, order: Tuple[int, ...], operands, *scalars) -> None:
        """Run the elementwise pass ``name`` over same-shape ``operands``.

        The axes run in ``order`` (the result's memory order), merged
        wherever every operand steps through two neighbours as through one.
        """
        dims = [operands[0].shape[axis] for axis in order]
        strides = [[a.strides[axis] // a.itemsize for axis in order] for a in operands]
        for i in reversed(range(len(dims) - 1)):
            if all(st[i] == st[i + 1] * dims[i + 1] for st in strides):
                dims[i : i + 2] = [dims[i] * dims[i + 1]]
                for st in strides:
                    del st[i]
        pad = 4 - len(dims)
        flat = [stride for st in strides for stride in [0] * pad + st]
        getattr(self._lib, name)(
            (_IDX * 4)(*[1] * pad, *dims),
            (_IDX * len(flat))(*flat),
            *(a.ctypes.data for a in operands),
            *scalars,
        )

    @staticmethod
    def _per_channel(shape: Tuple[int, ...], *vectors: np.ndarray):
        """Float32 ``(C,)`` vectors as ``shape``-broadcast operands, or ``None``."""
        if any(v.dtype != np.float32 or v.shape != (shape[1],) for v in vectors):
            return None
        return [np.broadcast_to(np.ascontiguousarray(v).reshape(1, -1, 1, 1), shape) for v in vectors]

    def quant_relu(self, x: np.ndarray, bits: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(out, mask)`` of the ``bits``-bit quantised ReLU, or ``None``."""
        order = self._result_order(x) if x.dtype == np.float32 and 1 <= bits <= 23 else None
        if order is None:
            return None
        out, mask = self._empty(x.shape, order, np.float32), self._empty(x.shape, order, np.bool_)
        self._elementwise("repro_quant_relu", order, (x, out, mask), float((1 << bits) - 1))
        return out, mask

    def multiply(self, a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
        """``a * b`` for a float32 ``a`` and a float32 or bool ``b`` of its shape.

        ``None`` where both share one layout too: numpy's contiguous pass is
        as fast as this one.
        """
        if a.dtype != np.float32 or b.dtype not in (np.float32, np.bool_) or a.shape != b.shape:
            return None
        order = self._result_order(a, b)
        if order is None or self._dense_order(a) == self._dense_order(b):
            return None
        out = self._empty(a.shape, order, np.float32)
        name = "repro_multiply" if b.dtype == np.float32 else "repro_mask_multiply"
        self._elementwise(name, order, (a, b, out))
        return out

    def bn_normalize(
        self, x: np.ndarray, mean: np.ndarray, std: np.ndarray, gamma: np.ndarray, beta: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(x_hat, out)`` of BatchNorm's normalise and scale-shift, or ``None``."""
        order = self._result_order(x) if x.dtype == np.float32 and x.ndim == 4 else None
        vectors = None if order is None else self._per_channel(x.shape, mean, std, gamma, beta)
        if vectors is None:
            return None
        x_hat, out = self._empty(x.shape, order, np.float32), self._empty(x.shape, order, np.float32)
        self._elementwise("repro_bn_normalize", order, (x, *vectors, x_hat, out))
        return x_hat, out

    def bn_backward(
        self, grad_xhat: np.ndarray, x_hat: np.ndarray, m1: np.ndarray, m2: np.ndarray, std: np.ndarray
    ) -> Optional[np.ndarray]:
        """``(grad_xhat - m1 - x_hat * m2) / std``, per channel, or ``None``."""
        if not grad_xhat.dtype == x_hat.dtype == np.float32 or grad_xhat.shape != x_hat.shape:
            return None
        order = self._result_order(grad_xhat, x_hat) if x_hat.ndim == 4 else None
        vectors = None if order is None else self._per_channel(x_hat.shape, m1, m2, std)
        if vectors is None:
            return None
        out = self._empty(x_hat.shape, order, np.float32)
        self._elementwise("repro_bn_backward", order, (grad_xhat, x_hat, *vectors, out))
        return out

    def lut_gemm(
        self,
        cols: np.ndarray,
        weight_codes: np.ndarray,
        weight_exponents: np.ndarray,
        table: np.ndarray,
        frac_bits: int,
        pow2: np.ndarray,
        bias: int,
        window: Tuple[int, int],
    ) -> Optional[np.ndarray]:
        """The ``(N, F, L)`` approximate GEMM of ``cols`` (``(N, K, L)``, any strides).

        ``weight_codes``/``weight_exponents`` are the weight's
        :func:`~repro.arith.float_format.operand_codes`, C-contiguous int32
        ``(K, F)``; ``table`` is the ``(side, side)`` signed product table of
        ``frac_bits`` and ``pow2[bias + e] == 2**e`` across ``window``.
        ``None`` when an exponent sum can leave ``window``.
        """
        n, k, l = cols.shape
        f = weight_codes.shape[1]
        side = 2 * (1 << frac_bits) + 1
        lo, hi = window
        if (
            cols.dtype != np.float32
            or weight_codes.shape != (k, f)
            or weight_exponents.shape != (k, f)
            or table.shape != (side, side)
            or table.dtype != np.float32
            or pow2.dtype != np.float32
            or not 0 <= bias + lo <= bias + hi < pow2.size
            or not all(
                a.flags.c_contiguous for a in (weight_codes, weight_exponents, table, pow2)
            )
            or not weight_codes.dtype == weight_exponents.dtype == np.int32
        ):
            raise ValueError("lut_gemm: operands do not match the kernel's contract")
        out = np.zeros((n, f, l), dtype=np.float32)
        if out.size == 0 or k == 0:
            return out
        if not self._usable(cols):
            cols = np.ascontiguousarray(cols)
        geometry = (n, k, l, *self._strides(cols))
        placement = self._strides(out)
        if l == 1:
            # dense: one pass whose positions are the batch rows
            geometry = (1, k, n, 0, geometry[4], geometry[3])
            placement = (0, placement[1], placement[0])
        status = self._lib.repro_lut_gemm(
            self._floats(cols), *geometry,
            weight_codes.ctypes.data_as(_INT32S), weight_exponents.ctypes.data_as(_INT32S), f,
            self._floats(table), frac_bits, self._floats(pow2), bias, lo, hi,
            self._floats(out), *placement,
        )
        if status == 2:
            raise MemoryError("lut_gemm: out of scratch memory")
        if status == 3:
            raise ValueError("lut_gemm: a weight code lies outside the product table")
        return None if status else out


class NativeBackend:
    """Resolves, once per process, whether the kernels are available.

    :meth:`kernels` builds (or finds) the library on its first call and
    returns the loaded :class:`Kernels`, or ``None`` -- the numpy fallback
    -- after warning once and counting ``NATIVE_STATS.fallbacks``.
    ``directory`` defaults to :func:`default_directory` at that first call.
    """

    def __init__(self, directory: Optional[Path] = None):
        self.directory = directory
        self._lock = threading.Lock()
        self._resolved = False
        self._kernels: Optional[Kernels] = None

    def kernels(self) -> Optional[Kernels]:
        if self._resolved:
            return self._kernels
        with self._lock:
            if not self._resolved:
                self._kernels = self._resolve()
                self._resolved = True
        return self._kernels

    def _resolve(self) -> Optional[Kernels]:
        from repro.faults import FAULTS, InjectedFault

        directory = Path(self.directory) if self.directory is not None else default_directory()
        try:
            FAULTS.maybe_raise("kernel.build_fail", f"native:{DIGEST}")
            if np.dtype(np.intp) != np.dtype(np.int64):
                raise NativeUnavailable("argmax indices are not 64-bit on this platform")
            cc, version = _compiler()
            path = build_library(directory, cc, version)
            try:
                kernels = Kernels(path)
            except OSError:
                # a corrupt or foreign file under our name: replace it once
                path.unlink(missing_ok=True)
                kernels = Kernels(build_library(directory, cc, version))
        except (InjectedFault, NativeUnavailable, OSError, subprocess.SubprocessError) as exc:
            NATIVE_STATS.fallbacks += 1
            warnings.warn(
                f"native kernels unavailable ({exc}); using the numpy conv/pool path "
                "and the reference GEMM",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return kernels


#: the process's backend, consulted by :mod:`repro.nn.functional` and
#: :meth:`repro.arith.fpm.ApproxFPM.make_gemm_kernel`
BACKEND = NativeBackend()
