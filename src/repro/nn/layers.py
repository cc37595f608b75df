"""Float reference layers with backpropagation.

A deliberately small, dependency-free layer zoo sufficient for the paper's
two architectures: same-padded 2-D convolutions (via im2col), average
pooling, dense layers, the hardware-matched activation, and a softmax
cross-entropy loss.  All layers operate on ``(batch, channels, height,
width)`` or ``(batch, features)`` arrays and implement ``forward`` /
``backward`` plus parameter/gradient accessors for the optimiser.

Weights are trained with SC in mind: layers clip their weights to
``[-1, 1]`` after every update (see :class:`~repro.nn.training.Trainer`),
and activations use the measured transfer curve of the sorter-based
feature-extraction block so that quantised SC inference sees the function it
was trained for.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.blocks.feature_extraction import SorterTransferCurve, sorter_activation
from repro.errors import ConfigurationError, ShapeError

__all__ = [
    "Layer",
    "Conv2D",
    "AvgPool2D",
    "Dense",
    "Flatten",
    "ClipActivation",
    "HardwareActivation",
    "LogitScale",
    "Network",
    "softmax_cross_entropy",
    "im2col",
]


class Layer(abc.ABC):
    """Base class: a differentiable module with optional parameters."""

    @abc.abstractmethod
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output."""

    @abc.abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the input gradient."""

    def parameters(self) -> list[np.ndarray]:
        """Trainable parameter arrays (shared references)."""
        return []

    def gradients(self) -> list[np.ndarray]:
        """Gradients matching :meth:`parameters` order."""
        return []

    def clip_parameters(self, limit: float = 1.0) -> None:
        """Clip parameters into ``[-limit, limit]`` (SC weight constraint)."""
        for param in self.parameters():
            np.clip(param, -limit, limit, out=param)


def im2col(
    images: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> tuple[np.ndarray, int, int]:
    """Extract convolution patches.

    Args:
        images: ``(batch, channels, height, width)`` input.
        kernel: square kernel size.
        stride: convolution stride.
        padding: symmetric zero padding.

    Returns:
        ``(patches, out_h, out_w)`` where patches has shape
        ``(batch, out_h * out_w, channels * kernel * kernel)``.
    """
    if images.ndim != 4:
        raise ShapeError(f"expected 4-D input, got shape {images.shape}")
    batch, channels, height, width = images.shape
    if padding:
        images = np.pad(
            images, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError("kernel larger than padded input")
    strides = images.strides
    window_view = np.lib.stride_tricks.as_strided(
        images,
        shape=(batch, channels, out_h, out_w, kernel, kernel),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    patches = window_view.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h * out_w, channels * kernel * kernel
    )
    return np.ascontiguousarray(patches), out_h, out_w


class Conv2D(Layer):
    """Same- or valid-padded 2-D convolution.

    Args:
        in_channels: input channel count.
        out_channels: number of filters.
        kernel_size: square kernel size.
        stride: convolution stride.
        padding: ``"same"`` or ``"valid"``.
        rng: generator used for weight initialisation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: str = "same",
        rng: np.random.Generator | None = None,
    ) -> None:
        if padding not in ("same", "valid"):
            raise ConfigurationError(f"padding must be 'same' or 'valid', got {padding!r}")
        if kernel_size < 1 or stride < 1:
            raise ConfigurationError("kernel_size and stride must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        scale = min(1.0, np.sqrt(2.0 / fan_in))
        self.weights = rng.normal(0.0, scale, size=(out_channels, fan_in))
        self.bias = np.zeros(out_channels)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._cache: tuple[np.ndarray, int, int, tuple[int, ...]] | None = None

    @property
    def fan_in(self) -> int:
        """Products per output neuron (the SC block input size ``M``)."""
        return self.in_channels * self.kernel_size * self.kernel_size

    def _pad_amount(self) -> int:
        return (self.kernel_size - 1) // 2 if self.padding == "same" else 0

    def output_size(self, height: int, width: int) -> tuple[int, int]:
        """``(out_h, out_w)`` of the map made from a ``height x width``
        input: the rule :func:`im2col` executes, for every stride, kernel
        and padding."""
        pad, k, s = self._pad_amount(), self.kernel_size, self.stride
        return (height + 2 * pad - k) // s + 1, (width + 2 * pad - k) // s + 1

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        patches, out_h, out_w = im2col(
            inputs, self.kernel_size, self.stride, self._pad_amount()
        )
        output = patches @ self.weights.T + self.bias
        if training:
            self._cache = (patches, out_h, out_w, inputs.shape)
        return output.transpose(0, 2, 1).reshape(
            inputs.shape[0], self.out_channels, out_h, out_w
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward(training=True)")
        patches, out_h, out_w, input_shape = self._cache
        batch = grad_output.shape[0]
        grad_flat = grad_output.reshape(batch, self.out_channels, out_h * out_w)
        grad_flat = grad_flat.transpose(0, 2, 1)  # (batch, positions, out_channels)

        self.grad_weights = np.einsum("bpo,bpf->of", grad_flat, patches) / batch
        self.grad_bias = grad_flat.sum(axis=(0, 1)) / batch

        grad_patches = grad_flat @ self.weights  # (batch, positions, fan_in)
        return self._col2im(grad_patches, input_shape, out_h, out_w)

    def _col2im(
        self,
        grad_patches: np.ndarray,
        input_shape: tuple[int, ...],
        out_h: int,
        out_w: int,
    ) -> np.ndarray:
        batch, channels, height, width = input_shape
        pad = self._pad_amount()
        padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad))
        k = self.kernel_size
        grad_patches = grad_patches.reshape(batch, out_h, out_w, channels, k, k)
        for ky in range(k):
            for kx in range(k):
                padded[
                    :,
                    :,
                    ky : ky + out_h * self.stride : self.stride,
                    kx : kx + out_w * self.stride : self.stride,
                ] += grad_patches[:, :, :, :, ky, kx].transpose(0, 3, 1, 2)
        if pad:
            return padded[:, :, pad:-pad, pad:-pad]
        return padded

    def parameters(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class AvgPool2D(Layer):
    """Non-overlapping average pooling (the paper uses 2x2, stride 2)."""

    def __init__(self, pool_size: int = 2) -> None:
        if pool_size < 1:
            raise ConfigurationError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if inputs.ndim != 4:
            raise ShapeError(f"expected 4-D input, got {inputs.shape}")
        batch, channels, height, width = inputs.shape
        p = self.pool_size
        out_h, out_w = height // p, width // p
        if out_h == 0 or out_w == 0:
            raise ShapeError("input smaller than the pooling window")
        trimmed = inputs[:, :, : out_h * p, : out_w * p]
        if training:
            self._input_shape = inputs.shape
        return trimmed.reshape(batch, channels, out_h, p, out_w, p).mean(axis=(3, 5))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError("backward called before forward(training=True)")
        batch, channels, height, width = self._input_shape
        p = self.pool_size
        grad = np.repeat(np.repeat(grad_output, p, axis=2), p, axis=3) / (p * p)
        padded = np.zeros(self._input_shape)
        padded[:, :, : grad.shape[2], : grad.shape[3]] = grad
        return padded


class Flatten(Layer):
    """Flatten spatial maps to feature vectors."""

    def __init__(self) -> None:
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._input_shape = inputs.shape
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError("backward called before forward(training=True)")
        return grad_output.reshape(self._input_shape)


class Dense(Layer):
    """Fully connected layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ConfigurationError("feature counts must be >= 1")
        rng = rng or np.random.default_rng(0)
        scale = min(1.0, np.sqrt(2.0 / in_features))
        self.in_features = in_features
        self.out_features = out_features
        self.weights = rng.normal(0.0, scale, size=(out_features, in_features))
        self.bias = np.zeros(out_features)
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
        self._inputs: np.ndarray | None = None

    @property
    def fan_in(self) -> int:
        """Products per output neuron (the SC block input size)."""
        return self.in_features

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"expected input of shape (batch, {self.in_features}), got {inputs.shape}"
            )
        if training:
            self._inputs = inputs
        return inputs @ self.weights.T + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise ShapeError("backward called before forward(training=True)")
        batch = grad_output.shape[0]
        self.grad_weights = grad_output.T @ self._inputs / batch
        self.grad_bias = grad_output.sum(axis=0) / batch
        return grad_output @ self.weights

    def parameters(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def gradients(self) -> list[np.ndarray]:
        return [self.grad_weights, self.grad_bias]


class ClipActivation(Layer):
    """Ideal activation of equation (1): ``clip(x, -1, 1)``."""

    def __init__(self) -> None:
        self._inputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._inputs = inputs
        return sorter_activation(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise ShapeError("backward called before forward(training=True)")
        mask = (self._inputs > -1.0) & (self._inputs < 1.0)
        return grad_output * mask


class HardwareActivation(Layer):
    """Measured transfer curve of the sorter-based feature-extraction block.

    When ``stream_length`` is given, the layer also injects the stochastic
    inner-product noise of finite streams (standard deviation
    ``sqrt(fan_in / stream_length)`` on the pre-activation) during training
    forward passes.  This is the SC-aware training the paper refers to: the
    network learns to push pre-activations into the saturated region where
    stream noise cannot flip the activation, which is what lets the
    quantised stochastic inference retain the float accuracy.

    Args:
        fan_in: SC block input size ``M`` whose curve should be used.
        curve: optionally a pre-built :class:`SorterTransferCurve` (shared
            across layers in tests to avoid re-estimation).
        stream_length: stochastic stream length assumed for noise-aware
            training; ``None`` disables noise injection.
        seed: noise generator seed.
    """

    def __init__(
        self,
        fan_in: int,
        curve: SorterTransferCurve | None = None,
        stream_length: int | None = None,
        seed: int = 0,
    ) -> None:
        if fan_in < 1:
            raise ConfigurationError("fan_in must be >= 1")
        if stream_length is not None and stream_length <= 0:
            raise ConfigurationError("stream_length must be positive when given")
        self.fan_in = fan_in
        self.stream_length = stream_length
        self._curve = curve or SorterTransferCurve.cached(fan_in, stream_length=4096)
        self._rng = np.random.default_rng(seed)
        self._inputs: np.ndarray | None = None

    @property
    def curve(self) -> SorterTransferCurve:
        """The transfer curve backing this activation."""
        return self._curve

    @property
    def training_noise_std(self) -> float:
        """Pre-activation noise injected during SC-aware training."""
        if self.stream_length is None:
            return 0.0
        return float(np.sqrt(self.fan_in / self.stream_length))

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._inputs = inputs
            noise_std = self.training_noise_std
            if noise_std > 0.0:
                inputs = inputs + self._rng.normal(0.0, noise_std, size=inputs.shape)
        return self._curve(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._inputs is None:
            raise ShapeError("backward called before forward(training=True)")
        return grad_output * self._curve.derivative(self._inputs)


class LogitScale(Layer):
    """Divide logits by a constant margin scale.

    Appended after the output layer during SC-aware training: the softmax
    loss then only saturates once the *raw* logit differences reach roughly
    ``scale``, which forces the network to learn class margins large enough
    to survive the stochastic noise of the categorization block (whose score
    resolution is about ``fan_in / sqrt(N)`` in raw inner-product units).
    The argmax (and therefore accuracy) is unaffected.
    """

    def __init__(self, scale: float) -> None:
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        self.scale = float(scale)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        return inputs / self.scale

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output / self.scale


class Network:
    """A simple sequential network.

    Args:
        layers: ordered layer list.
        name: label used in reports.
    """

    def __init__(self, layers: Sequence[Layer], name: str = "network") -> None:
        if not layers:
            raise ConfigurationError("a network needs at least one layer")
        self.layers = list(layers)
        self.name = name

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers in sequence."""
        value = inputs
        for layer in self.layers:
            value = layer.forward(value, training=training)
        return value

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate through all layers in reverse order."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[np.ndarray]:
        """All trainable parameters in layer order."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> list[np.ndarray]:
        """All gradients in the same order as :meth:`parameters`."""
        grads: list[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def clip_parameters(self, limit: float = 1.0) -> None:
        """Clip every parameter into ``[-limit, limit]``."""
        for layer in self.layers:
            layer.clip_parameters(limit)

    def predict(self, inputs: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions for a batch of images."""
        outputs = []
        for start in range(0, inputs.shape[0], batch_size):
            logits = self.forward(inputs[start : start + batch_size], training=False)
            outputs.append(np.argmax(logits, axis=1))
        return np.concatenate(outputs)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
        """Classification accuracy on the given set."""
        predictions = self.predict(inputs, batch_size)
        return float((predictions == np.asarray(labels)).mean())


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy loss and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got {logits.shape}")
    if labels.shape[0] != logits.shape[0]:
        raise ShapeError("labels and logits batch sizes differ")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probabilities = exp / exp.sum(axis=1, keepdims=True)
    batch = logits.shape[0]
    loss = float(-np.log(probabilities[np.arange(batch), labels] + 1e-12).mean())
    grad = probabilities.copy()
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad
