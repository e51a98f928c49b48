"""Synthetic handwritten-digit dataset (MNIST substitute).

Each sample is a grayscale rendering of a 5x7 digit glyph with randomised
position, rotation, scale, stroke thickness, blur and pixel noise, normalised
to ``[0, 1]``.  The generator is fully deterministic given a seed.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.datasets.loader import Dataset

# 5x7 glyph bitmaps for the ten digits (rows are strings of '.'/'#')
_GLYPHS = {
    0: ["#####", "#...#", "#...#", "#...#", "#...#", "#...#", "#####"],
    1: ["..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."],
    2: ["#####", "....#", "....#", "#####", "#....", "#....", "#####"],
    3: ["#####", "....#", "....#", ".####", "....#", "....#", "#####"],
    4: ["#...#", "#...#", "#...#", "#####", "....#", "....#", "....#"],
    5: ["#####", "#....", "#....", "#####", "....#", "....#", "#####"],
    6: ["#####", "#....", "#....", "#####", "#...#", "#...#", "#####"],
    7: ["#####", "....#", "...#.", "..#..", "..#..", ".#...", ".#..."],
    8: ["#####", "#...#", "#...#", "#####", "#...#", "#...#", "#####"],
    9: ["#####", "#...#", "#...#", "#####", "....#", "....#", "#####"],
}


def _glyph_array(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit]
    return np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows], dtype=np.float32)


def render_digit(
    digit: int,
    size: int = 16,
    rng: Optional[np.random.Generator] = None,
    jitter: bool = True,
) -> np.ndarray:
    """Render one digit as a ``(1, size, size)`` float32 image in [0, 1].

    Parameters
    ----------
    digit:
        Class label, 0..9.
    size:
        Output image side length (>= 12 recommended).
    jitter:
        Apply random rotation, scaling, translation, thickness and noise.  With
        ``jitter=False`` a canonical centred rendering is produced.
    """
    if digit not in _GLYPHS:
        raise ValueError(f"digit must be in 0..9, got {digit}")
    if size < 10:
        raise ValueError("size must be >= 10")
    # imported here: scipy.ndimage takes ~0.35 s to import, and a process
    # over a warm zoo cache renders nothing
    from scipy import ndimage

    rng = rng or np.random.default_rng(0)
    glyph = _glyph_array(digit)

    # scale the 5x7 glyph up to roughly 60-80 % of the canvas height
    target_h = size * (rng.uniform(0.6, 0.8) if jitter else 0.7)
    zoom = target_h / glyph.shape[0]
    zoom_w = zoom * (rng.uniform(0.85, 1.15) if jitter else 1.0)
    rendered = ndimage.zoom(glyph, (zoom, zoom_w), order=1, prefilter=False)
    rendered = np.clip(rendered, 0.0, 1.0)

    if jitter:
        angle = rng.uniform(-12.0, 12.0)
        rendered = ndimage.rotate(rendered, angle, reshape=True, order=1, mode="constant", cval=0.0)
        rendered = np.clip(rendered, 0.0, 1.0)
        if rng.random() < 0.5:
            rendered = ndimage.grey_dilation(rendered, size=(2, 2))

    canvas = np.zeros((size, size), dtype=np.float32)
    gh, gw = rendered.shape
    gh, gw = min(gh, size), min(gw, size)
    rendered = rendered[:gh, :gw]
    max_r = size - gh
    max_c = size - gw
    if jitter:
        r0 = int(rng.integers(0, max_r + 1)) if max_r > 0 else 0
        c0 = int(rng.integers(0, max_c + 1)) if max_c > 0 else 0
    else:
        r0, c0 = max_r // 2, max_c // 2
    canvas[r0 : r0 + gh, c0 : c0 + gw] = rendered

    if jitter:
        canvas = ndimage.gaussian_filter(canvas, sigma=rng.uniform(0.3, 0.7))
        canvas *= rng.uniform(0.85, 1.0)
        canvas += rng.normal(0.0, 0.03, size=canvas.shape)
    else:
        canvas = ndimage.gaussian_filter(canvas, sigma=0.5)
    return np.clip(canvas, 0.0, 1.0).astype(np.float32)[np.newaxis, :, :]


def generate_digits(
    n_samples: int = 2000,
    size: int = 16,
    seed: int = 0,
    jitter: bool = True,
    name: str = "synthetic-digits",
) -> Dataset:
    """Generate a balanced synthetic digit dataset.

    Returns a :class:`~repro.datasets.loader.Dataset` with ``n_samples`` images
    of shape ``(1, size, size)`` and labels 0..9 in round-robin order (shuffle
    happens at split time).
    """
    rng = np.random.default_rng(seed)
    images = np.empty((n_samples, 1, size, size), dtype=np.float32)
    labels = np.empty(n_samples, dtype=np.int64)
    for i in range(n_samples):
        digit = i % 10
        images[i] = render_digit(digit, size=size, rng=rng, jitter=jitter)
        labels[i] = digit
    return Dataset(images, labels, name=name)
