"""The :class:`Sequential` network container."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.nn.functional import softmax
from repro.nn.layers import Module, Parameter


class Sequential(Module):
    """A feed-forward stack of layers evaluated in order.

    In addition to ``forward``/``backward`` the container provides the
    prediction helpers the attack and evaluation code relies on
    (``predict_logits``, ``predict_proba``, ``predict``) and simple parameter
    (de)serialisation so a trained exact model's weights can be dropped into an
    approximate or quantised copy without retraining.
    """

    def __init__(self, layers: Iterable[Module], name: str = "model"):
        super().__init__()
        self.layers: List[Module] = list(layers)
        self.name = name

    # ------------------------------------------------------------------ core
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float32)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def param_backward(self, grad_out: np.ndarray) -> None:
        """:meth:`backward` for training: the first layer skips the input gradient."""
        grad = grad_out
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        if self.layers:
            self.layers[0].param_backward(grad)

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def set_training(self, training: bool) -> None:
        self.training = training
        for layer in self.layers:
            layer.set_training(training)

    def clear_caches(self) -> None:
        for layer in self.layers:
            layer.clear_caches()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------ prediction
    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Raw class scores (evaluation mode)."""
        was_training = self.training
        self.set_training(False)
        try:
            return self.forward(x)
        finally:
            self.set_training(was_training)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        return softmax(self.predict_logits(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        return self.predict_logits(x).argmax(axis=1)

    # --------------------------------------------------------- serialisation
    #: non-trainable per-layer buffers that must survive save/load (BatchNorm
    #: running statistics)
    _BUFFER_NAMES = ("running_mean", "running_var")

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy all parameter values (and buffers), keyed by layer index and name."""
        state: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for p in layer.parameters():
                state[f"{i}:{p.name}"] = p.value.copy()
            for buffer_name in self._BUFFER_NAMES:
                if hasattr(layer, buffer_name):
                    state[f"{i}:buffer.{buffer_name}"] = np.asarray(
                        getattr(layer, buffer_name), dtype=np.float32
                    ).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values previously produced by :meth:`state_dict`.

        Buffer entries (BatchNorm running statistics) are optional for backward
        compatibility with checkpoints written before they were tracked.
        """
        own: Dict[str, Parameter] = {}
        buffers: Dict[str, tuple] = {}
        for i, layer in enumerate(self.layers):
            for p in layer.parameters():
                own[f"{i}:{p.name}"] = p
            for buffer_name in self._BUFFER_NAMES:
                if hasattr(layer, buffer_name):
                    buffers[f"{i}:buffer.{buffer_name}"] = (layer, buffer_name)
        missing = set(own) - set(state)
        unexpected = set(state) - set(own) - set(buffers)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for key, param in own.items():
            value = np.asarray(state[key], dtype=np.float32)
            if value.shape != param.value.shape:
                raise ValueError(f"shape mismatch for {key}: {value.shape} vs {param.value.shape}")
            param.value = value.copy()
        for key, (layer, buffer_name) in buffers.items():
            if key in state:
                setattr(layer, buffer_name, np.asarray(state[key], dtype=np.float32).copy())

    def save(self, path: str) -> None:
        """Persist parameters to an ``.npz`` file."""
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        """Load parameters from an ``.npz`` file produced by :meth:`save`."""
        with np.load(path) as data:
            self.load_state_dict({k: data[k] for k in data.files})

    # -------------------------------------------------------------- utility
    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.value.size for p in self.parameters()))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        inner = ",\n  ".join(repr(l) for l in self.layers)
        return f"Sequential(name={self.name!r}, layers=[\n  {inner}\n])"
