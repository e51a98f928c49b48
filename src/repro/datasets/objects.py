"""Synthetic 3-channel object dataset (CIFAR-10 substitute).

Ten procedurally generated classes of coloured shapes and textures on noisy
backgrounds.  Classes differ in global structure (shape vs. texture vs.
gradient) so that a small AlexNet-style CNN learns genuinely convolutional
features, which is what the Defensive Approximation experiments need.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.datasets.loader import Dataset

OBJECT_CLASS_NAMES = (
    "disk",
    "square",
    "triangle",
    "ring",
    "cross",
    "h-stripes",
    "v-stripes",
    "checker",
    "gradient",
    "blobs",
)


def _coordinate_grids(size: int) -> Tuple[np.ndarray, np.ndarray]:
    axis = np.linspace(-1.0, 1.0, size, dtype=np.float32)
    yy, xx = np.meshgrid(axis, axis, indexing="ij")
    return yy, xx


def _shape_mask(class_id: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Binary-ish mask of the foreground structure for the given class."""
    yy, xx = _coordinate_grids(size)
    cy, cx = rng.uniform(-0.25, 0.25, size=2)
    scale = rng.uniform(0.45, 0.7)
    y = (yy - cy) / scale
    x = (xx - cx) / scale
    r = np.sqrt(x ** 2 + y ** 2)

    name = OBJECT_CLASS_NAMES[class_id]
    if name == "disk":
        mask = (r < 1.0).astype(np.float32)
    elif name == "square":
        mask = ((np.abs(x) < 0.9) & (np.abs(y) < 0.9)).astype(np.float32)
    elif name == "triangle":
        mask = ((y > -0.8) & (y < 0.9) & (np.abs(x) < (0.9 - 0.5 * (y + 0.8)))).astype(np.float32)
    elif name == "ring":
        mask = ((r < 1.0) & (r > 0.55)).astype(np.float32)
    elif name == "cross":
        mask = ((np.abs(x) < 0.3) | (np.abs(y) < 0.3)).astype(np.float32)
        mask *= ((np.abs(x) < 1.0) & (np.abs(y) < 1.0)).astype(np.float32)
    elif name == "h-stripes":
        freq = rng.uniform(3.0, 5.0)
        mask = (np.sin(freq * np.pi * yy) > 0).astype(np.float32)
    elif name == "v-stripes":
        freq = rng.uniform(3.0, 5.0)
        mask = (np.sin(freq * np.pi * xx) > 0).astype(np.float32)
    elif name == "checker":
        freq = rng.uniform(2.0, 4.0)
        mask = ((np.sin(freq * np.pi * xx) > 0) ^ (np.sin(freq * np.pi * yy) > 0)).astype(np.float32)
    elif name == "gradient":
        angle = rng.uniform(0, 2 * np.pi)
        mask = 0.5 + 0.5 * (np.cos(angle) * xx + np.sin(angle) * yy)
        mask = np.clip(mask, 0.0, 1.0)
    elif name == "blobs":
        mask = np.zeros((size, size), dtype=np.float32)
        for _ in range(rng.integers(3, 6)):
            by, bx = rng.uniform(-0.7, 0.7, size=2)
            br = rng.uniform(0.15, 0.3)
            mask += np.exp(-(((yy - by) ** 2 + (xx - bx) ** 2) / (2 * br ** 2)))
        mask = np.clip(mask, 0.0, 1.0)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown class id {class_id}")
    return mask


def render_object(
    class_id: int, size: int = 32, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Render one sample of ``class_id`` as a ``(3, size, size)`` float32 image."""
    if not 0 <= class_id < len(OBJECT_CLASS_NAMES):
        raise ValueError(f"class_id must be in 0..{len(OBJECT_CLASS_NAMES) - 1}")
    if size < 12:
        raise ValueError("size must be >= 12")
    # imported here: scipy.ndimage takes ~0.35 s to import, and a process
    # over a warm zoo cache renders nothing
    from scipy import ndimage

    rng = rng or np.random.default_rng(0)

    mask = _shape_mask(class_id, size, rng)
    mask = ndimage.gaussian_filter(mask, sigma=rng.uniform(0.4, 0.9))

    fg_color = rng.uniform(0.55, 1.0, size=3).astype(np.float32)
    bg_color = rng.uniform(0.0, 0.35, size=3).astype(np.float32)
    image = np.empty((3, size, size), dtype=np.float32)
    for ch in range(3):
        image[ch] = bg_color[ch] + (fg_color[ch] - bg_color[ch]) * mask
    image += rng.normal(0.0, 0.04, size=image.shape)
    return np.clip(image, 0.0, 1.0).astype(np.float32)


def generate_objects(
    n_samples: int = 2000,
    size: int = 32,
    seed: int = 0,
    name: str = "synthetic-objects",
) -> Dataset:
    """Generate a balanced synthetic object dataset with 10 classes."""
    rng = np.random.default_rng(seed)
    images = np.empty((n_samples, 3, size, size), dtype=np.float32)
    labels = np.empty(n_samples, dtype=np.int64)
    for i in range(n_samples):
        class_id = i % len(OBJECT_CLASS_NAMES)
        images[i] = render_object(class_id, size=size, rng=rng)
        labels[i] = class_id
    return Dataset(images, labels, name=name)
