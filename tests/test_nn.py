"""Tests for repro.nn: layers, gradients, quantization, training,
architectures, and the SC mapping."""

import numpy as np
import pytest

from repro.api import Session
from repro.errors import ConfigurationError, ShapeError, TrainingError
from repro.nn import (
    AvgPool2D,
    ClipActivation,
    Conv2D,
    Dense,
    Flatten,
    HardwareActivation,
    Network,
    Trainer,
    TrainingConfig,
    build_dnn,
    build_snn,
    dnn_layer_specs,
    quantize_network,
    quantize_weights,
    snn_layer_specs,
    softmax_cross_entropy,
)
from repro.nn.layers import LogitScale, im2col
from repro.nn.sc_layers import ScNetworkMapper


def numerical_gradient_check(layer, inputs, epsilon=1e-5):
    """Compare analytic input gradients against finite differences."""
    output = layer.forward(inputs, training=True)
    grad_output = np.random.default_rng(0).normal(size=output.shape)
    analytic = layer.backward(grad_output)
    numeric = np.zeros_like(inputs)
    it = np.nditer(inputs, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = inputs[idx]
        inputs[idx] = original + epsilon
        plus = float((layer.forward(inputs, training=True) * grad_output).sum())
        inputs[idx] = original - epsilon
        minus = float((layer.forward(inputs, training=True) * grad_output).sum())
        inputs[idx] = original
        numeric[idx] = (plus - minus) / (2 * epsilon)
        it.iternext()
    return analytic, numeric


class TestIm2col:
    def test_valid_convolution_shape(self):
        images = np.arange(2 * 1 * 5 * 5, dtype=float).reshape(2, 1, 5, 5)
        patches, out_h, out_w = im2col(images, 3)
        assert patches.shape == (2, 9, 9)
        assert (out_h, out_w) == (3, 3)

    def test_padding_keeps_size(self):
        images = np.ones((1, 2, 6, 6))
        patches, out_h, out_w = im2col(images, 3, padding=1)
        assert (out_h, out_w) == (6, 6)
        assert patches.shape == (1, 36, 18)

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            im2col(np.ones((1, 1, 2, 2)), 5)

    def test_requires_4d(self):
        with pytest.raises(ShapeError):
            im2col(np.ones((3, 3)), 2)


class TestConv2D:
    def test_same_padding_output_shape(self):
        conv = Conv2D(1, 4, 3, rng=np.random.default_rng(0))
        out = conv.forward(np.random.default_rng(1).normal(size=(2, 1, 8, 8)))
        assert out.shape == (2, 4, 8, 8)

    def test_matches_manual_convolution(self):
        conv = Conv2D(1, 1, 3, padding="valid", rng=np.random.default_rng(2))
        image = np.random.default_rng(3).normal(size=(1, 1, 4, 4))
        out = conv.forward(image)
        kernel = conv.weights.reshape(3, 3)
        expected = sum(
            kernel[i, j] * image[0, 0, i : i + 2, j : j + 2]
            for i in range(3)
            for j in range(3)
        ) + conv.bias[0]
        assert np.allclose(out[0, 0], expected)

    def test_input_gradient_matches_numeric(self):
        conv = Conv2D(2, 3, 3, rng=np.random.default_rng(4))
        inputs = np.random.default_rng(5).normal(size=(2, 2, 5, 5))
        analytic, numeric = numerical_gradient_check(conv, inputs)
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_weight_gradient_matches_numeric(self):
        conv = Conv2D(1, 2, 3, rng=np.random.default_rng(6))
        inputs = np.random.default_rng(7).normal(size=(2, 1, 4, 4))
        out = conv.forward(inputs, training=True)
        grad_out = np.random.default_rng(8).normal(size=out.shape)
        conv.backward(grad_out)
        analytic = conv.grad_weights.copy()
        epsilon = 1e-5
        w_index = (1, 4)
        original = conv.weights[w_index]
        conv.weights[w_index] = original + epsilon
        plus = float((conv.forward(inputs) * grad_out).sum())
        conv.weights[w_index] = original - epsilon
        minus = float((conv.forward(inputs) * grad_out).sum())
        conv.weights[w_index] = original
        numeric = (plus - minus) / (2 * epsilon) / inputs.shape[0]
        assert analytic[w_index] == pytest.approx(numeric, abs=1e-4)

    def test_backward_requires_training_forward(self):
        conv = Conv2D(1, 1, 3)
        with pytest.raises(ShapeError):
            conv.backward(np.zeros((1, 1, 4, 4)))

    def test_invalid_padding(self):
        with pytest.raises(ConfigurationError):
            Conv2D(1, 1, 3, padding="reflect")

    def test_clip_parameters(self):
        conv = Conv2D(1, 1, 3)
        conv.weights[...] = 5.0
        conv.clip_parameters()
        assert conv.weights.max() <= 1.0


class TestOtherLayers:
    def test_avgpool_forward(self):
        pool = AvgPool2D(2)
        data = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool.forward(data)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == pytest.approx(data[0, 0, :2, :2].mean())

    def test_avgpool_gradient(self):
        pool = AvgPool2D(2)
        inputs = np.random.default_rng(0).normal(size=(1, 1, 4, 4))
        analytic, numeric = numerical_gradient_check(pool, inputs)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_dense_gradient(self):
        dense = Dense(6, 4, rng=np.random.default_rng(1))
        inputs = np.random.default_rng(2).normal(size=(3, 6))
        analytic, numeric = numerical_gradient_check(dense, inputs)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_dense_shape_check(self):
        with pytest.raises(ShapeError):
            Dense(6, 4).forward(np.zeros((2, 5)))

    def test_flatten_roundtrip(self):
        flatten = Flatten()
        data = np.random.default_rng(3).normal(size=(2, 3, 4, 4))
        out = flatten.forward(data, training=True)
        assert out.shape == (2, 48)
        assert flatten.backward(out).shape == data.shape

    def test_clip_activation_gradient_masks_saturation(self):
        act = ClipActivation()
        inputs = np.array([[-2.0, -0.5, 0.5, 2.0]])
        act.forward(inputs, training=True)
        grad = act.backward(np.ones_like(inputs))
        assert np.array_equal(grad, [[0.0, 1.0, 1.0, 0.0]])

    def test_hardware_activation_monotone(self):
        act = HardwareActivation(9)
        z = np.linspace(-3, 3, 11)[None, :]
        out = act.forward(z)
        assert np.all(np.diff(out[0]) >= -1e-9)

    def test_hardware_activation_noise_only_in_training(self):
        act = HardwareActivation(9, stream_length=64, seed=3)
        z = np.zeros((1, 1000))
        inference = act.forward(z, training=False)
        training = act.forward(z, training=True)
        assert np.allclose(inference, inference[0, 0])
        assert training.std() > 0.01
        assert act.training_noise_std == pytest.approx(np.sqrt(9 / 64))

    def test_logit_scale(self):
        scale = LogitScale(4.0)
        data = np.array([[4.0, -8.0]])
        assert np.array_equal(scale.forward(data), [[1.0, -2.0]])
        assert np.array_equal(scale.backward(np.ones((1, 2))), [[0.25, 0.25]])
        with pytest.raises(ConfigurationError):
            LogitScale(0.0)

    def test_softmax_cross_entropy_gradient(self):
        logits = np.random.default_rng(4).normal(size=(5, 3))
        labels = np.array([0, 1, 2, 1, 0])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss > 0
        assert grad.shape == logits.shape
        # Gradient rows sum to zero (softmax property).
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-9)

    def test_softmax_shape_checks(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros(3), np.zeros(3, dtype=int))


class TestQuantization:
    def test_roundtrip_error_bounded(self):
        weights = np.random.default_rng(0).uniform(-1, 1, 1000)
        quantized = quantize_weights(weights, 8)
        assert np.abs(quantized - weights).max() <= 1.0 / 256 + 1e-9

    def test_clipping_out_of_range(self):
        assert quantize_weights(np.array([5.0]), 8)[0] == pytest.approx(1.0)

    def test_invalid_bits(self):
        with pytest.raises(ConfigurationError):
            quantize_weights(np.zeros(3), 0)

    def test_quantize_network_in_place(self):
        network = Network([Dense(4, 2, rng=np.random.default_rng(1))])
        network.layers[0].weights[...] = 0.123456789
        quantize_network(network, 4)
        assert network.layers[0].weights[0, 0] != pytest.approx(0.123456789)


class TestArchitectures:
    def test_snn_spec_layers(self):
        names = [spec.name for spec in snn_layer_specs()]
        assert names == ["Conv3_x", "AvgPool", "Conv3_x", "AvgPool", "FC500", "FC800", "OutLayer"]

    def test_dnn_spec_layers(self):
        names = [spec.name for spec in dnn_layer_specs()]
        assert names.count("Conv3_x") == 2
        assert names.count("Conv5_x") == 2
        assert names.count("Conv7_x") == 1

    def test_snn_forward_shape(self):
        network = build_snn(activation="clip", seed=0, training_stream_length=None)
        out = network.forward(np.zeros((2, 1, 28, 28)))
        assert out.shape == (2, 10)

    def test_dnn_forward_shape(self):
        network = build_dnn(activation="clip", seed=0, training_stream_length=None)
        out = network.forward(np.zeros((1, 1, 28, 28)))
        assert out.shape == (1, 10)

    def test_invalid_activation(self):
        with pytest.raises(ConfigurationError):
            build_snn(activation="relu")


class TestTraining:
    def test_config_validation(self):
        with pytest.raises(TrainingError):
            TrainingConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainingConfig(optimizer="rmsprop")

    def test_trainer_learns_small_problem(self):
        rng = np.random.default_rng(0)
        # Two linearly separable blobs in 8 dimensions.
        x = np.concatenate([rng.normal(-1, 0.3, (40, 8)), rng.normal(1, 0.3, (40, 8))])
        y = np.array([0] * 40 + [1] * 40)
        network = Network([Dense(8, 2, rng=rng)])
        trainer = Trainer(network, TrainingConfig(epochs=20, batch_size=16, seed=1))
        history = trainer.fit(x, y, x, y)
        assert history.final_test_accuracy > 0.95
        assert history.losses[-1] < history.losses[0]

    def test_weight_clip_applied(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 4))
        y = rng.integers(0, 2, 20)
        network = Network([Dense(4, 2, rng=rng)])
        trainer = Trainer(
            network, TrainingConfig(epochs=2, learning_rate=5.0, optimizer="sgd")
        )
        trainer.fit(x, y)
        assert np.abs(network.parameters()[0]).max() <= 1.0

    def test_mismatched_labels(self):
        network = Network([Dense(4, 2)])
        trainer = Trainer(network)
        with pytest.raises(TrainingError):
            trainer.fit(np.zeros((10, 4)), np.zeros(5, dtype=int))

    def test_history_requires_test_set(self):
        from repro.nn.training import TrainingHistory

        with pytest.raises(TrainingError):
            TrainingHistory().final_test_accuracy


class TestScMapping:
    def test_inventories_cover_all_blocks(self):
        network = build_snn(activation="clip", training_stream_length=None)
        mapper = ScNetworkMapper(network)
        inventories = mapper.layer_inventories()
        kinds = {inv.block_kind for inv in inventories}
        assert kinds == {"feature_extraction", "pooling", "categorization"}
        # Last layer is the categorization block with 10 outputs.
        assert inventories[-1].block_kind == "categorization"
        assert inventories[-1].block_count == 10

    @pytest.mark.parametrize("kernel, stride", [(3, 2), (4, 1)])
    def test_inventory_counts_equal_executed_map_sizes(self, kernel, stride):
        """Conv stride and even-kernel "same" padding size the conv and
        pooling inventories as the layers execute them."""
        from repro.nn.architectures import LayerSpec, build_network

        specs = [
            LayerSpec(kind="conv", name="C", kernel=kernel, channels=2, stride=stride),
            LayerSpec(kind="pool", name="P", kernel=2, stride=2),
            LayerSpec(kind="output", name="O", units=10),
        ]
        network = build_network(specs, activation="clip", seed=3)
        mapper = ScNetworkMapper(network)
        mapper.check_input_shape((1, 28, 28))
        value = np.zeros((1, 1, 28, 28))
        executed = []
        for layer in network.layers:
            value = layer.forward(value)
            if isinstance(layer, (Conv2D, AvgPool2D)):
                executed.append(value[0].size)
        inventories = mapper.layer_inventories()
        assert [inv.block_count for inv in inventories[:2]] == executed

    def test_fast_forward_shapes_and_agreement_without_noise(self):
        network = build_snn(activation="clip", seed=3, training_stream_length=None)
        mapper = ScNetworkMapper(network, stream_length=1024)
        images = np.random.default_rng(0).random((4, 1, 28, 28))
        scores = mapper.fast_forward(images, inject_noise=False)
        assert scores.shape == (4, 10)

    def test_fast_forward_noise_is_reproducible_with_seed(self):
        network = build_snn(activation="clip", seed=3, training_stream_length=None)
        mapper = ScNetworkMapper(network, stream_length=256, seed=9)
        images = np.random.default_rng(1).random((2, 1, 28, 28))
        a = mapper.fast_forward(images, rng=np.random.default_rng(5))
        b = mapper.fast_forward(images, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_engine_validation(self):
        network = Network([Dense(4, 2)])
        with pytest.raises(ConfigurationError):
            Session.from_network(network, stream_length=0)

    def test_stream_length_validation(self):
        network = Network([Dense(4, 2)])
        with pytest.raises(ConfigurationError):
            ScNetworkMapper(network, stream_length=-1)
