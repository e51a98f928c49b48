"""Layer modules with forward and analytic backward passes.

Each layer caches whatever it needs during ``forward`` and consumes that cache
in ``backward``.  The cache is intentionally tied to the last forward call;
networks are evaluated layer-by-layer in sequence (see
:class:`repro.nn.network.Sequential`) so this matches usage.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import count
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.init import he_normal, zeros


#: when False, layer backward passes compute only the *input* gradient and
#: skip parameter-gradient accumulation.  Toggled via :func:`no_param_grads`.
_ACCUMULATE_PARAM_GRADS = True


@contextmanager
def no_param_grads():
    """Skip parameter-gradient accumulation inside the context.

    The attack-facing gradient paths (BPDA / white-box input gradients,
    :class:`repro.attacks.base.Classifier`) only consume the gradient w.r.t.
    the *input*; the weight/bias gradient GEMMs are pure waste there and are
    some of the largest per-sample costs of a backward pass.  Training code
    never uses this context, so optimisers see normal accumulation.
    """
    global _ACCUMULATE_PARAM_GRADS
    previous = _ACCUMULATE_PARAM_GRADS
    _ACCUMULATE_PARAM_GRADS = False
    try:
        yield
    finally:
        _ACCUMULATE_PARAM_GRADS = previous


#: process-wide source of parameter version numbers; drawing every version
#: from one counter makes a version globally unique, so a (version, shape)
#: pair can never collide across Parameter instances -- swapping a layer's
#: Parameter object for a fresh one is indistinguishable from a mutation to
#: any cache keyed on the version
_VERSION_COUNTER = count(1)


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Every (re)assignment of :attr:`value` advances the :attr:`version`
    counter to a fresh process-unique number.  Downstream caches keyed by
    parameter content -- most importantly the fused GEMM kernels' per-layer
    weight decompositions (:mod:`repro.arith.kernels`) -- use it to detect
    mutation *and* object replacement.  All mutation paths in this codebase
    go through assignment (optimisers use ``p.value -= ...``, which re-binds
    through the setter); code that writes *into* the array
    (``p.value[i] = ...``) must call :meth:`bump_version`.
    """

    def __init__(self, value: np.ndarray, name: str = "param"):
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def value(self) -> np.ndarray:
        return self._value

    @value.setter
    def value(self, new_value: np.ndarray) -> None:
        self._value = np.asarray(new_value, dtype=np.float32)
        self._version = next(_VERSION_COUNTER)

    @property
    def version(self) -> int:
        """Content-version token: strictly increasing, process-unique."""
        return self._version

    def bump_version(self) -> None:
        """Mark in-place array mutation that bypassed the ``value`` setter."""
        self._version = next(_VERSION_COUNTER)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Module:
    """Base class of all layers."""

    def __init__(self) -> None:
        self.training = False

    # ------------------------------------------------------------------ API
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def param_backward(self, grad_out: np.ndarray) -> None:
        """The backward pass of a caller that discards the input gradient.

        Accumulates the parameter gradients exactly as :meth:`backward`
        does.  A convolution skips computing its input gradient; the other
        layers run :meth:`backward`.
        """
        self.backward(grad_out)

    def parameters(self) -> List[Parameter]:
        """Trainable parameters of this layer (empty by default)."""
        return []

    def set_training(self, training: bool) -> None:
        self.training = training

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class Conv2d(Module):
    """Exact 2D convolution layer (the reference hardware: exact FP32 MACs)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
        name: str = "conv",
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.name = name
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng),
            name=f"{name}.weight",
        )
        self.bias = Parameter(zeros((out_channels,)), name=f"{name}.bias")
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None

    def forward_weight(self) -> np.ndarray:
        """The weight the forward pass applies; the backward pass uses :attr:`weight`."""
        return self.weight.value

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, saved = F.conv2d_forward(
            x,
            self.forward_weight(),
            self.bias.value,
            self.stride,
            self.padding,
            batch_invariant=not self.training,
        )
        self._cache = (saved, x.shape)
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        saved, x_shape = self._cache
        grad_in, grad_w, grad_b = F.conv2d_backward(
            grad_out,
            saved,
            x_shape,
            self.weight.value,
            self.stride,
            self.padding,
            with_param_grads=_ACCUMULATE_PARAM_GRADS,
            batch_invariant=not self.training,
            with_input_grad=input_grad,
        )
        if _ACCUMULATE_PARAM_GRADS:
            self.weight.grad += grad_w
            self.bias.grad += grad_b
        return grad_in

    def param_backward(self, grad_out: np.ndarray) -> None:
        self.backward(grad_out, input_grad=False)

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding})"
        )


class Linear(Module):
    """Fully connected layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        name: str = "fc",
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        self.weight = Parameter(
            he_normal((out_features, in_features), in_features, rng), name=f"{name}.weight"
        )
        self.bias = Parameter(zeros((out_features,)), name=f"{name}.bias")
        self._cache: Optional[np.ndarray] = None

    def forward_weight(self) -> np.ndarray:
        """The weight the forward pass applies; the backward pass uses :attr:`weight`."""
        return self.weight.value

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        weight = self.forward_weight()
        if self.training:
            # training passes are batch-shaped anyway (BatchNorm, batch-mean
            # loss): keep the single fused GEMM
            out = x @ weight.T
        else:
            # batch-invariant contraction: each row's logits are bitwise
            # independent of the batch size (see repro.nn.functional docstring)
            out = F.linear_forward_values(x, weight)
        return (out + self.bias.value).astype(np.float32, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache
        if _ACCUMULATE_PARAM_GRADS:
            self.weight.grad += grad_out.T @ x
            self.bias.grad += grad_out.sum(axis=0)
        if self.training:
            grad_in = grad_out @ self.weight.value
        else:
            grad_in = F.linear_backward_values(grad_out, self.weight.value)
        return grad_in.astype(np.float32, copy=False)

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._mask = F.relu_forward(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return F.relu_backward(grad_out, self._mask)


class MaxPool2d(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, argmax = F.maxpool2d_forward(x, self.kernel_size, self.stride)
        self._cache = (argmax, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        argmax, x_shape = self._cache
        return F.maxpool2d_backward(grad_out, argmax, x_shape, self.kernel_size, self.stride)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout; identity in evaluation mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep).astype(np.float32) / keep
        return (x * self._mask).astype(np.float32, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return (grad_out * self._mask).astype(np.float32, copy=False)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Dropout(p={self.p})"


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of ``(N, C, H, W)`` inputs."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5, name: str = "bn"):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features, dtype=np.float32), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(num_features, dtype=np.float32), name=f"{name}.beta")
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._cache: Optional[Dict[str, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError("BatchNorm2d expects (N, C, H, W) inputs")
        if self.training:
            mean, var = F.batchnorm_statistics(x)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        std = np.sqrt(var + self.eps)
        x_hat, out = F.batchnorm_normalize(x, mean, std, self.gamma.value, self.beta.value)
        self._cache = {"x_hat": x_hat, "std": std, "training": np.array(self.training)}
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat = self._cache["x_hat"]
        std = self._cache["std"]
        was_training = bool(self._cache["training"])
        if _ACCUMULATE_PARAM_GRADS:
            self.gamma.grad += F.multiply(grad_out, x_hat).sum(axis=(0, 2, 3))
            self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        gamma_b = self.gamma.value.reshape(1, -1, 1, 1)
        if not was_training:
            # running statistics are constants w.r.t. the input
            return (grad_out * gamma_b / std.reshape(1, -1, 1, 1)).astype(np.float32, copy=False)
        return F.batchnorm_input_grad(grad_out * gamma_b, x_hat, std)

    def parameters(self) -> List[Parameter]:
        return [self.gamma, self.beta]

    def __repr__(self) -> str:  # pragma: no cover
        return f"BatchNorm2d({self.num_features})"
