"""Tests for the model zoo builders."""

import numpy as np
import pytest

from repro.nn.models import build_alexnet, build_dq_cnn, build_lenet5, forward_macs


def test_lenet5_forward_shape():
    model = build_lenet5((1, 16, 16), num_classes=10)
    x = np.random.default_rng(0).uniform(0, 1, size=(3, 1, 16, 16)).astype(np.float32)
    assert model.predict_logits(x).shape == (3, 10)


def test_lenet5_layer_structure():
    model = build_lenet5((1, 16, 16))
    names = [type(l).__name__ for l in model.layers]
    assert names.count("Conv2d") == 2
    assert names.count("MaxPool2d") == 2
    assert names.count("Linear") == 3


def test_lenet5_rejects_too_small_inputs():
    with pytest.raises(ValueError):
        build_lenet5((1, 6, 6), kernel_size=5)


def test_lenet5_is_deterministic_given_seed():
    a = build_lenet5((1, 14, 14), seed=5)
    b = build_lenet5((1, 14, 14), seed=5)
    x = np.random.default_rng(1).uniform(0, 1, size=(2, 1, 14, 14)).astype(np.float32)
    np.testing.assert_allclose(a.predict_logits(x), b.predict_logits(x), rtol=1e-6)


def test_alexnet_forward_shape_and_structure():
    model = build_alexnet((3, 32, 32), num_classes=10)
    names = [type(l).__name__ for l in model.layers]
    assert names.count("Conv2d") == 5
    assert names.count("MaxPool2d") == 3
    assert names.count("Linear") == 3
    x = np.random.default_rng(2).uniform(0, 1, size=(2, 3, 32, 32)).astype(np.float32)
    assert model.predict_logits(x).shape == (2, 10)


def test_alexnet_rejects_too_small_inputs():
    with pytest.raises(ValueError):
        build_alexnet((3, 6, 6))


def test_dq_cnn_full_mode_structure():
    model = build_dq_cnn((3, 16, 16), bits=4, mode="full")
    names = [type(l).__name__ for l in model.layers]
    assert "QuantConv2d" in names
    assert "QuantReLU" in names
    assert "BatchNorm2d" in names
    x = np.random.default_rng(3).uniform(0, 1, size=(2, 3, 16, 16)).astype(np.float32)
    assert model.predict_logits(x).shape == (2, 10)


def test_dq_cnn_weight_mode_has_exact_activations():
    model = build_dq_cnn((3, 16, 16), bits=4, mode="weight")
    names = [type(l).__name__ for l in model.layers]
    assert "QuantConv2d" in names
    assert "QuantReLU" not in names
    assert "ReLU" in names


def test_dq_cnn_float_mode_has_no_quantisation():
    model = build_dq_cnn((3, 16, 16), mode="float")
    names = [type(l).__name__ for l in model.layers]
    assert "QuantConv2d" not in names
    assert "QuantLinear" not in names


def test_dq_cnn_invalid_mode():
    with pytest.raises(ValueError):
        build_dq_cnn((3, 16, 16), mode="bogus")


def test_model_parameter_counts_positive():
    for model in (
        build_lenet5((1, 16, 16)),
        build_alexnet((3, 16, 16)),
        build_dq_cnn((3, 16, 16)),
    ):
        assert model.num_parameters() > 1000


def test_forward_macs_counts_conv_and_dense_multiply_accumulates():
    model = build_lenet5((1, 16, 16), conv_channels=(12, 24), fc_sizes=(96, 64))
    conv1 = 14 * 14 * 12 * 1 * 3 * 3  # 16x16 -> 14x14, pooled to 7x7
    conv2 = 5 * 5 * 24 * 12 * 3 * 3  # 7x7 -> 5x5, pooled to 2x2
    dense = 24 * 2 * 2 * 96 + 96 * 64 + 64 * 10
    assert forward_macs(model, (1, 16, 16)) == conv1 + conv2 + dense
    # padded convolutions keep the size; the DQ CNN's quantised layers count the same
    quantised = build_dq_cnn((3, 32, 32), mode="full")
    assert forward_macs(quantised, (3, 32, 32)) == forward_macs(
        build_dq_cnn((3, 32, 32), mode="float"), (3, 32, 32)
    )
