"""The small CNN shared by the backend, serving, API and fleet tests, and
the replica hold the serving tests queue requests behind."""

import time

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


def wait_until_held(plan, count: int = 1, timeout: float = 60.0) -> None:
    """Return once ``count`` ``SlowReplica`` faults of ``plan`` have fired.

    The plan counts a firing before it sleeps, so each held replica has
    already taken its batch: whatever is submitted next queues behind it.
    """
    deadline = time.monotonic() + timeout
    while plan.fired.get("slow_replica", 0) < count:
        if time.monotonic() > deadline:
            raise AssertionError(f"no replica held within {timeout} s")
        time.sleep(0.001)
