"""Application-level reproduction: digit classification with the SC/AQFP network.

Trains the paper's SNN (Table 8) on the synthetic MNIST-like digit dataset
with SC-aware training (hardware transfer-curve activations, stream-noise
injection, weight clipping), then evaluates through the unified Session
facade (:mod:`repro.api`):

* floating-point (software) accuracy,
* the fast statistical SC model with stream noise,
* a bit-exact SC simulation of test images through the actual blocks,
  using any registered execution backend (``--backend``; the default
  word-packed data plane simulates 16 images comfortably),
* the Table 9 style hardware roll-up (energy per image, throughput).

``--save-model PATH`` additionally exports the trained network as a
versioned model artifact, ready for ``python -m repro predict/serve`` or
``Session.from_artifact`` -- train once, deploy forever.

Run with:  python examples/mnist_sc_inference.py [--quick] [--backend NAME]
"""

import argparse
import time

from repro.api import Session
from repro.cli import add_backend_arguments, backend_epilog
from repro.datasets import generate_digit_dataset
from repro.eval.network_report import network_hardware_rollup
from repro.eval.tables import format_table
from repro.nn import Trainer, TrainingConfig, build_snn


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=backend_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--quick", action="store_true", help="use a tiny training budget")
    parser.add_argument("--epochs", type=int, default=None)
    add_backend_arguments(
        parser,
        default="bit-exact-packed",
        capability="bit_exact",
        include_stream_length=True,
        backend_help="execution backend for the bit-exact validation rows",
    )
    parser.add_argument(
        "--bit-exact-images",
        type=int,
        default=None,
        help="images simulated bit-exactly (default: 2 legacy-sized, 16 packed)",
    )
    parser.add_argument(
        "--save-model",
        default=None,
        help="export the trained network as a model artifact directory",
    )
    args = parser.parse_args()

    n_train, n_test = (800, 200) if args.quick else (3000, 600)
    epochs = args.epochs or (2 if args.quick else 5)

    print(f"generating dataset ({n_train} train / {n_test} test images)...")
    dataset = generate_digit_dataset(n_train, n_test, seed=2019)

    print("building and training the SNN (SC-aware training)...")
    network = build_snn(seed=1, training_stream_length=args.stream_length)
    trainer = Trainer(network, TrainingConfig(epochs=epochs, seed=1))
    start = time.time()
    trainer.fit(
        dataset.train_images[:, None] * 2 - 1,
        dataset.train_labels,
        dataset.test_images[:, None] * 2 - 1,
        dataset.test_labels,
        verbose=True,
    )
    print(f"training took {time.time() - start:.1f} s")

    session = Session.from_network(
        network,
        stream_length=args.stream_length,
        seed=3,
        metadata={
            "arch": "snn",
            "dataset": {"n_train": n_train, "n_test": n_test, "seed": 2019},
        },
    )
    if args.save_model:
        print(f"saving model artifact to {session.save(args.save_model)}")
    test_images = dataset.test_images[:, None]
    # Every evaluation selects its execution backend through the registry.
    float_result = session.evaluate(test_images, dataset.test_labels, backend="float")
    fast_result = session.evaluate(test_images, dataset.test_labels, backend="sc-fast")
    if args.bit_exact_images is not None:
        n_bit_exact = args.bit_exact_images
    else:
        n_bit_exact = 2 if args.backend == "bit-exact-legacy" else 16
    bit_exact = session.evaluate(
        test_images,
        dataset.test_labels,
        backend=args.backend,
        max_images=n_bit_exact,
        workers=args.workers,
    )

    aqfp, cmos = network_hardware_rollup(
        session.mapper.layer_inventories(), stream_length=args.stream_length
    )
    print()
    print(
        format_table(
            ["Platform", "Accuracy", "Energy (uJ/image)", "Throughput (img/ms)"],
            [
                ["Software (float)", float_result.accuracy, "-", "-"],
                ["CMOS SC", fast_result.accuracy, cmos.energy_uj_per_image, cmos.throughput_images_per_ms],
                ["AQFP SC", fast_result.accuracy, aqfp.energy_uj_per_image, aqfp.throughput_images_per_ms],
                [
                    f"AQFP {bit_exact.mode} ({bit_exact.n_images} images)",
                    bit_exact.accuracy,
                    "-",
                    "-",
                ],
            ],
            title="Table 9 style network comparison (SNN)",
        )
    )
    print(f"energy-efficiency gain AQFP vs CMOS: "
          f"{cmos.energy_uj_per_image / aqfp.energy_uj_per_image:.2e}x")


if __name__ == "__main__":
    main()
