"""Reproduce the hardware-utilisation comparisons of Tables 4-7.

Prints, for every block family and input size the paper evaluates, the AQFP
and CMOS energy / delay and the resulting energy-efficiency ratio.
Optionally (``--backend NAME``) follows the block tables with a quick
network sanity check that trains a small SNN and evaluates it through the
named execution backend from the registry (:mod:`repro.backends`).

Run with:  python examples/hardware_report.py [--backend bit-exact-packed]
"""

import argparse

from repro.cli import add_backend_arguments, backend_epilog
from repro.eval.hardware_report import (
    table4_sng,
    table5_feature_extraction,
    table6_pooling,
    table7_categorization,
)
from repro.eval.tables import format_table

HEADERS = [
    "Size",
    "AQFP E (pJ)",
    "CMOS E (pJ)",
    "E ratio",
    "AQFP delay (ns)",
    "CMOS delay (ns)",
    "Speedup",
]


def backend_sanity_check(backend: str, workers: int | None = None) -> None:
    """Train a small SNN briefly and evaluate it via the named backend."""
    from repro.api import Session
    from repro.datasets import generate_digit_dataset
    from repro.nn import Trainer, TrainingConfig, build_snn

    print()
    print(f"backend sanity check ({backend!r}):")
    # A few SC-aware epochs are needed before SC accuracy is meaningful
    # (the training pushes pre-activations into the saturating regions).
    dataset = generate_digit_dataset(800, 100, seed=2019)
    network = build_snn(seed=1, training_stream_length=512)
    trainer = Trainer(network, TrainingConfig(epochs=3, seed=1))
    trainer.fit(dataset.train_images[:, None] * 2 - 1, dataset.train_labels)
    with Session.from_network(network, stream_length=512, seed=3) as session:
        result = session.evaluate(
            dataset.test_images[:, None],
            dataset.test_labels,
            backend=backend,
            max_images=16 if backend.startswith("bit-exact") else None,
            workers=workers,
        )
    print(
        f"  {result.mode}: accuracy {result.accuracy:.2f} on "
        f"{result.n_images} images (N = {result.stream_length})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=backend_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_backend_arguments(
        parser,
        default=None,
        backend_help="also run a quick network accuracy check through this backend",
    )
    args = parser.parse_args()
    tables = [
        ("Table 4: stochastic number generators", table4_sng()),
        ("Table 5: feature-extraction blocks", table5_feature_extraction()),
        ("Table 6: sub-sampling blocks", table6_pooling()),
        ("Table 7: categorization blocks", table7_categorization()),
    ]
    for title, rows in tables:
        print()
        print(format_table(HEADERS, [row.as_row() for row in rows], title=title))
        best = max(row.energy_ratio for row in rows)
        print(f"best energy-efficiency gain in this table: {best:.2e}x")
    if args.backend:
        backend_sanity_check(args.backend, workers=args.workers)


if __name__ == "__main__":
    main()
