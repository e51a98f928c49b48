"""Tests for the DoReFa quantisation layers (Defensive Quantization baseline)."""

import numpy as np
import pytest

from repro.nn.quantize import (
    QuantConv2d,
    QuantLinear,
    QuantReLU,
    quantize_activations,
    quantize_tensor,
    quantize_weights,
)


def test_quantize_tensor_levels():
    x = np.linspace(0, 1, 11).astype(np.float32)
    q = quantize_tensor(x, bits=2)
    grid = np.array([0.0, 1 / 3, 2 / 3, 1.0])
    distances = np.abs(q[:, np.newaxis] - grid[np.newaxis, :]).min(axis=1)
    assert np.all(distances < 1e-6)


def test_quantize_tensor_high_bits_is_identity():
    x = np.random.default_rng(0).uniform(0, 1, 100).astype(np.float32)
    np.testing.assert_array_equal(quantize_tensor(x, bits=32), x)


def test_quantize_tensor_invalid_bits():
    with pytest.raises(ValueError):
        quantize_tensor(np.zeros(3), bits=0)


def test_quantize_weights_range_and_levels():
    w = np.random.default_rng(1).normal(0, 2, size=1000).astype(np.float32)
    q = quantize_weights(w, bits=4)
    assert q.min() >= -1.0 and q.max() <= 1.0
    assert len(np.unique(q)) <= 2 ** 4


def test_quantize_weights_preserves_sign():
    w = np.array([-1.5, -0.1, 0.1, 1.5], dtype=np.float32)
    q = quantize_weights(w, bits=4)
    assert q[0] < 0 and q[3] > 0


def test_quantize_activations_clips_to_unit_interval():
    x = np.array([-2.0, 0.4, 3.0], dtype=np.float32)
    q = quantize_activations(x, bits=4)
    assert q[0] == 0.0 and q[2] == 1.0
    assert 0.0 <= q[1] <= 1.0


def test_quant_conv_output_matches_conv_with_quantised_weights():
    layer = QuantConv2d(1, 2, 3, bits=4, rng=np.random.default_rng(2))
    x = np.random.default_rng(3).uniform(0, 1, size=(2, 1, 6, 6)).astype(np.float32)
    out = layer.forward(x)
    assert out.shape == (2, 2, 4, 4)
    # the latent full-precision weights are untouched
    assert len(np.unique(layer.weight.value)) > 2 ** 4


def test_quant_conv_latent_weights_restored_after_forward():
    layer = QuantConv2d(1, 1, 3, bits=2)
    before = layer.weight.value.copy()
    layer.forward(np.zeros((1, 1, 5, 5), dtype=np.float32))
    np.testing.assert_array_equal(layer.weight.value, before)


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize(
    "make, x",
    [
        (lambda: QuantConv2d(2, 3, 3, bits=4), np.ones((2, 2, 5, 5), np.float32)),
        (lambda: QuantLinear(4, 3, bits=4), np.ones((2, 4), np.float32)),
    ],
)
def test_quant_forward_leaves_the_latent_parameter_untouched(make, x, training):
    """The forward pass computes on the quantised weight without assigning
    it: the Parameter keeps its array and version (threads may share it)."""
    layer = make()
    layer.set_training(training)
    value, version = layer.weight.value, layer.weight.version
    layer.backward(np.ones_like(layer.forward(x)))
    assert layer.weight.value is value
    assert layer.weight.version == version


def test_quant_linear_forward_and_backward():
    layer = QuantLinear(4, 3, bits=4, rng=np.random.default_rng(4))
    x = np.random.default_rng(5).uniform(0, 1, size=(2, 4)).astype(np.float32)
    out = layer.forward(x)
    grad = layer.backward(np.ones_like(out))
    assert grad.shape == x.shape


def test_quant_relu_output_is_quantised():
    layer = QuantReLU(bits=2)
    x = np.array([[-0.5, 0.2, 0.8, 1.5]], dtype=np.float32)
    out = layer.forward(x)
    assert out[0, 0] == 0.0
    assert out[0, 3] == 1.0
    grid = np.array([0.0, 1 / 3, 2 / 3, 1.0])
    distances = np.abs(out.reshape(-1, 1) - grid[np.newaxis, :]).min(axis=1)
    assert np.all(distances < 1e-6)


def test_quant_relu_straight_through_gradient():
    layer = QuantReLU(bits=2)
    x = np.array([[-0.5, 0.5, 1.5]], dtype=np.float32)
    layer.forward(x)
    grad = layer.backward(np.ones((1, 3), dtype=np.float32))
    np.testing.assert_array_equal(grad, [[0.0, 1.0, 0.0]])


def test_quant_relu_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        QuantReLU().backward(np.zeros((1, 1), dtype=np.float32))
