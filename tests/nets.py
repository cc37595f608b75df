"""The small CNN shared by the backend, serving, API and fleet tests."""

from repro.nn.architectures import LayerSpec, build_network


def tiny_cnn(seed: int = 5, channels: int = 2, units: int = 16):
    """Conv3 -> AvgPool4 -> FC -> 10-way output, sized for fast bit-exact runs."""
    specs = [
        LayerSpec(kind="conv", name="Conv3_x", kernel=3, channels=channels),
        LayerSpec(kind="pool", name="AvgPool", kernel=4, stride=4),
        LayerSpec(kind="fc", name=f"FC{units}", units=units),
        LayerSpec(kind="output", name="OutLayer", units=10),
    ]
    return build_network(
        specs, activation="hardware", seed=seed, training_stream_length=128
    )
