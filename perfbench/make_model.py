"""Regenerate the benchmark's stored model artifact (``perfbench/model``).

The benchmark serves one fixed model: the tiny serving CNN
(:func:`repro.cli.tiny_serving_specs`) trained from fixed seeds on
synthetic digits and saved at N=1024.  The artifact is stored with the
benchmark so that every commit measures the same weights; ``run.py``
refuses any other model by its manifest digest.  Run from the checkout
root, then update ``MODEL_SHA256`` in ``run.py``::

    python3 perfbench/make_model.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.api import ScModel  # noqa: E402
from repro.cli import tiny_serving_specs  # noqa: E402
from repro.datasets import generate_digit_dataset  # noqa: E402
from repro.nn import Trainer, TrainingConfig  # noqa: E402
from repro.nn.architectures import build_network  # noqa: E402


def main() -> int:
    data = generate_digit_dataset(800, 128, seed=2019)
    network = build_network(
        tiny_serving_specs(),
        activation="hardware",
        seed=5,
        training_stream_length=256,
    )
    Trainer(network, TrainingConfig(epochs=4, seed=1)).fit(
        data.train_images[:, None] * 2 - 1,
        data.train_labels,
        data.test_images[:, None] * 2 - 1,
        data.test_labels,
        verbose=False,
    )
    target = HERE / "model"
    ScModel(
        network,
        stream_length=1024,
        seed=7,
        metadata={
            "arch": "tiny",
            "dataset": {"n_train": 800, "n_test": 128, "seed": 2019},
            "training": {"epochs": 4, "seed": 1, "init_seed": 5},
        },
    ).save(target)
    digest = hashlib.sha256((target / "manifest.json").read_bytes()).hexdigest()
    print(f"saved {target}; MODEL_SHA256 = {digest!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
