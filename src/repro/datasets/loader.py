"""Dataset containers and split helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np


@dataclass
class Dataset:
    """A labelled image dataset in ``(N, C, H, W)`` layout with float32 pixels in [0, 1]."""

    images: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError("images must have shape (N, C, H, W)")
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must have the same length")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        return tuple(self.images.shape[1:])  # type: ignore[return-value]

    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "Dataset":
        """Select a subset of samples by index."""
        return Dataset(self.images[indices], self.labels[indices], name or self.name)

    def sample_per_class(
        self, per_class: int, rng: Optional[np.random.Generator] = None
    ) -> "Dataset":
        """Draw ``per_class`` random samples from each class (Figure 12 style selection)."""
        rng = rng or np.random.default_rng(0)
        chosen = []
        for label in np.unique(self.labels):
            candidates = np.flatnonzero(self.labels == label)
            take = min(per_class, len(candidates))
            chosen.append(rng.choice(candidates, size=take, replace=False))
        indices = np.concatenate(chosen) if chosen else np.array([], dtype=int)
        return self.subset(indices, name=f"{self.name}_balanced")

    def batches(
        self, batch_size: int, shuffle: bool = False, rng: Optional[np.random.Generator] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Iterate over minibatches."""
        indices = np.arange(len(self))
        if shuffle:
            rng = rng or np.random.default_rng(0)
            rng.shuffle(indices)
        for start in range(0, len(self), batch_size):
            batch = indices[start : start + batch_size]
            yield self.images[batch], self.labels[batch]


@dataclass
class DataSplit:
    """A train/test pair of datasets."""

    train: Dataset
    test: Dataset


def split_sizes(n_samples: int, test_fraction: float) -> Tuple[int, int]:
    """``(train, test)`` sizes :func:`train_test_split` gives ``n_samples`` samples."""
    n_test = max(1, int(round(n_samples * test_fraction)))
    return n_samples - n_test, n_test


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, rng: Optional[np.random.Generator] = None
) -> DataSplit:
    """Shuffle and split a dataset into train and test partitions."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = rng or np.random.default_rng(0)
    indices = rng.permutation(len(dataset))
    _, n_test = split_sizes(len(dataset), test_fraction)
    test_idx = indices[:n_test]
    train_idx = indices[n_test:]
    return DataSplit(
        train=dataset.subset(train_idx, name=f"{dataset.name}_train"),
        test=dataset.subset(test_idx, name=f"{dataset.name}_test"),
    )
