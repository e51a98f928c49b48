"""Training loop and evaluation helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.nn.losses import CrossEntropyLoss
from repro.nn.network import Sequential
from repro.nn.optim import Optimizer


@dataclass
class TrainingHistory:
    """Per-epoch training loss and (when validation data is given) accuracy."""

    losses: List[float] = field(default_factory=list)
    val_accuracies: List[float] = field(default_factory=list)

    @property
    def final_val_accuracy(self) -> float:
        return self.val_accuracies[-1] if self.val_accuracies else float("nan")


def iterate_minibatches(
    x: np.ndarray, y: np.ndarray, batch_size: int, rng: Optional[np.random.Generator] = None
):
    """Yield shuffled minibatches of ``(x, y)``."""
    rng = rng or np.random.default_rng(0)
    indices = rng.permutation(len(x))
    for start in range(0, len(x), batch_size):
        batch = indices[start : start + batch_size]
        yield x[batch], y[batch]


def evaluate_accuracy(model: Sequential, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
    """Classification accuracy of ``model`` on ``(x, y)``."""
    correct = 0
    for start in range(0, len(x), batch_size):
        stop = min(len(x), start + batch_size)
        preds = model.predict(x[start:stop])
        correct += int((preds == y[start:stop]).sum())
    return correct / max(len(x), 1)


def train_classifier(
    model: Sequential,
    optimizer: Optimizer,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    epochs: int = 5,
    batch_size: int = 64,
    rng: Optional[np.random.Generator] = None,
    verbose: bool = False,
) -> TrainingHistory:
    """Train a classifier with softmax cross entropy.

    The loop is deliberately simple (full-batch shuffling, fixed learning
    rate): the experiments only need models that reach solid clean accuracy on
    the synthetic datasets, mirroring the pre-trained exact classifiers of the
    paper.  Only the optional validation set is scored after each epoch; the
    model is left in eval mode.
    """
    rng = rng or np.random.default_rng(0)
    criterion = CrossEntropyLoss()
    history = TrainingHistory()
    for epoch in range(epochs):
        model.set_training(True)
        epoch_losses = []
        for xb, yb in iterate_minibatches(x_train, y_train, batch_size, rng):
            optimizer.zero_grad()
            logits = model.forward(xb)
            loss = criterion.forward(logits, yb)
            grad = criterion.backward()
            model.backward(grad)
            optimizer.step()
            epoch_losses.append(loss)
        model.set_training(False)
        history.losses.append(float(np.mean(epoch_losses)))
        if x_val is not None and y_val is not None:
            history.val_accuracies.append(evaluate_accuracy(model, x_val, y_val))
        if verbose:  # pragma: no cover - logging only
            val = history.val_accuracies[-1] if history.val_accuracies else float("nan")
            print(
                f"epoch {epoch + 1}/{epochs}: loss={history.losses[-1]:.4f} val_acc={val:.3f}"
            )
    return history
