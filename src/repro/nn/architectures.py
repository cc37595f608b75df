"""The paper's network architectures (Table 8).

Two networks are evaluated:

* **SNN** (shallow): ``Conv3_x - AvgPool - Conv3_x - AvgPool - FC500 -
  FC800 - OutLayer``
* **DNN** (deep): ``Conv3_x - Conv3_x - AvgPool - Conv5_x - Conv5_x -
  AvgPool - Conv7_x - FC500 - FC800 - OutLayer``

with the per-layer configuration of Table 8 (Conv3_x = 3x3/32, Conv5_x =
5x5/32, Conv7_x = 7x7/64, Conv9_x = 9x9/128, AvgPool = 2x2 stride 2).
Convolutions use same padding so the deep network still has spatial extent
left when the 7x7 kernels arrive.  The CONV and FC500/FC800 layers map onto
feature-extraction blocks in hardware; the output layer maps onto the
majority-chain categorization block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import (
    AvgPool2D,
    ClipActivation,
    Conv2D,
    Dense,
    Flatten,
    HardwareActivation,
    Layer,
    LogitScale,
    Network,
)

__all__ = [
    "LayerSpec",
    "TABLE8_CONFIG",
    "snn_layer_specs",
    "dnn_layer_specs",
    "build_network",
    "build_snn",
    "build_dnn",
]


@dataclass(frozen=True)
class LayerSpec:
    """One row of the architecture description.

    Attributes:
        kind: ``"conv"``, ``"pool"``, ``"fc"`` or ``"output"``.
        name: Table 8 layer name (e.g. ``"Conv3_x"``).
        kernel: kernel size for conv layers, pool size for pooling.
        channels: output channels for conv layers.
        units: output units for fc/output layers.
        stride: stride (1 for conv, equals kernel for pooling).
    """

    kind: str
    name: str
    kernel: int = 0
    channels: int = 0
    units: int = 0
    stride: int = 1


#: Kernel shapes / strides exactly as listed in Table 8.
TABLE8_CONFIG: dict[str, dict[str, int]] = {
    "Conv3_x": {"kernel": 3, "channels": 32, "stride": 1},
    "Conv5_x": {"kernel": 5, "channels": 32, "stride": 1},
    "Conv7_x": {"kernel": 7, "channels": 64, "stride": 1},
    "Conv9_x": {"kernel": 9, "channels": 128, "stride": 1},
    "AvgPool": {"kernel": 2, "stride": 2},
    "FC500": {"units": 500},
    "FC800": {"units": 800},
}


def _conv_spec(name: str) -> LayerSpec:
    cfg = TABLE8_CONFIG[name]
    return LayerSpec(
        kind="conv",
        name=name,
        kernel=cfg["kernel"],
        channels=cfg["channels"],
        stride=cfg["stride"],
    )


def _pool_spec() -> LayerSpec:
    cfg = TABLE8_CONFIG["AvgPool"]
    return LayerSpec(kind="pool", name="AvgPool", kernel=cfg["kernel"], stride=cfg["stride"])


def snn_layer_specs(n_classes: int = 10) -> list[LayerSpec]:
    """Layer list of the shallow network (SNN)."""
    return [
        _conv_spec("Conv3_x"),
        _pool_spec(),
        _conv_spec("Conv3_x"),
        _pool_spec(),
        LayerSpec(kind="fc", name="FC500", units=TABLE8_CONFIG["FC500"]["units"]),
        LayerSpec(kind="fc", name="FC800", units=TABLE8_CONFIG["FC800"]["units"]),
        LayerSpec(kind="output", name="OutLayer", units=n_classes),
    ]


def dnn_layer_specs(n_classes: int = 10) -> list[LayerSpec]:
    """Layer list of the deep network (DNN)."""
    return [
        _conv_spec("Conv3_x"),
        _conv_spec("Conv3_x"),
        _pool_spec(),
        _conv_spec("Conv5_x"),
        _conv_spec("Conv5_x"),
        _pool_spec(),
        _conv_spec("Conv7_x"),
        LayerSpec(kind="fc", name="FC500", units=TABLE8_CONFIG["FC500"]["units"]),
        LayerSpec(kind="fc", name="FC800", units=TABLE8_CONFIG["FC800"]["units"]),
        LayerSpec(kind="output", name="OutLayer", units=n_classes),
    ]


def build_network(
    specs: list[LayerSpec],
    input_shape: tuple[int, int, int] = (1, 28, 28),
    activation: str = "hardware",
    seed: int = 2019,
    name: str = "network",
    training_stream_length: int | None = 1024,
) -> Network:
    """Instantiate a float reference network from layer specs.

    Args:
        specs: layer specification list (see :func:`snn_layer_specs`).
        input_shape: ``(channels, height, width)`` of the input images.
        activation: ``"hardware"`` (measured transfer curve, the paper's
            SC-aware training) or ``"clip"`` (ideal clip of equation (1)).
        seed: weight initialisation seed.
        name: network name used in reports.
        training_stream_length: stream length assumed by the noise-aware
            training of the hardware activation (``None`` disables noise
            injection; ignored for ``activation="clip"``).

    Returns:
        A :class:`~repro.nn.layers.Network` ready for training.
    """
    if activation not in ("hardware", "clip"):
        raise ConfigurationError(
            f"activation must be 'hardware' or 'clip', got {activation!r}"
        )
    rng = np.random.default_rng(seed)
    channels, height, width = input_shape
    layers: list[Layer] = []
    flattened = False
    for spec in specs:
        if spec.kind == "conv":
            conv = Conv2D(
                channels, spec.channels, spec.kernel, spec.stride, "same", rng
            )
            layers.append(conv)
            layers.append(
                _make_activation(activation, conv.fan_in, training_stream_length, seed)
            )
            channels = spec.channels
            height, width = conv.output_size(height, width)
        elif spec.kind == "pool":
            layers.append(AvgPool2D(spec.kernel))
            height //= spec.kernel
            width //= spec.kernel
        elif spec.kind in ("fc", "output"):
            if not flattened:
                layers.append(Flatten())
                flattened = True
                in_features = channels * height * width
            dense = Dense(in_features, spec.units, rng)
            layers.append(dense)
            if spec.kind == "fc":
                layers.append(
                    _make_activation(
                        activation, dense.fan_in, training_stream_length, seed
                    )
                )
            elif activation == "hardware" and training_stream_length is not None:
                # SC-aware margin: the categorization block resolves raw
                # inner-product differences of about fan_in / sqrt(N), so the
                # loss should not saturate before margins reach that scale.
                layers.append(
                    LogitScale(max(1.0, dense.fan_in / np.sqrt(training_stream_length)))
                )
            in_features = spec.units
        else:  # pragma: no cover - defensive
            raise ConfigurationError(f"unknown layer kind {spec.kind!r}")
    return Network(layers, name=name)


def _make_activation(
    activation: str, fan_in: int, training_stream_length: int | None, seed: int
) -> Layer:
    if activation == "clip":
        return ClipActivation()
    return HardwareActivation(fan_in, stream_length=training_stream_length, seed=seed)


def build_snn(
    input_shape: tuple[int, int, int] = (1, 28, 28),
    n_classes: int = 10,
    activation: str = "hardware",
    seed: int = 2019,
    training_stream_length: int | None = 1024,
) -> Network:
    """Build the shallow network of Table 9 ("SNN")."""
    return build_network(
        snn_layer_specs(n_classes),
        input_shape,
        activation,
        seed,
        name="SNN",
        training_stream_length=training_stream_length,
    )


def build_dnn(
    input_shape: tuple[int, int, int] = (1, 28, 28),
    n_classes: int = 10,
    activation: str = "hardware",
    seed: int = 2019,
    training_stream_length: int | None = 1024,
) -> Network:
    """Build the deep network of Table 9 ("DNN")."""
    return build_network(
        dnn_layer_specs(n_classes),
        input_shape,
        activation,
        seed,
        name="DNN",
        training_stream_length=training_stream_length,
    )
