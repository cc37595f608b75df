"""Serving walkthrough: artifacts, micro-batching, early exit, deadlines.

Loads a small CNN from a saved model artifact (training it once and
saving it on the first run -- delete the artifact directory to retrain),
stands up the micro-batching inference service through the Session facade
(:mod:`repro.api`), and pushes a burst of single-image requests through
it:

* a free worker answers a lone request at once, and requests that queue
  while both workers are busy are merged by the next free one (watch the
  mean batch size),
* confidently classified images early-exit at a fraction of the stream
  length (watch the exit checkpoints and the cycle reduction),
* repeated images are answered from the LRU cache without spending a
  single stream cycle (watch the hit rate),
* a final request carries a per-request deadline
  (:class:`repro.api.PredictOptions`) tight enough to force the earliest
  checkpoint -- the deadline-aware exit path.

Run with:  python examples/serve_demo.py [--backend NAME] [--model PATH]
"""

import argparse
from pathlib import Path

from repro.api import PredictOptions, ScModel, Session
from repro.cli import (
    QUICK_DATASET,
    add_backend_arguments,
    backend_epilog,
    tiny_serving_specs,
)
from repro.config import ServiceConfig
from repro.datasets import generate_digit_dataset
from repro.eval.tables import format_table
from repro.nn import Trainer, TrainingConfig
from repro.nn.architectures import build_network

DEFAULT_MODEL = Path(__file__).resolve().parent.parent / "artifacts" / "serve_demo_model"

#: Shared with the CLI's --quick training runs (see repro.cli).
DATASET = QUICK_DATASET


def train_and_save(path: Path, stream_length: int) -> None:
    """One-time training run producing the demo's model artifact."""
    print("no artifact found -- training the demo CNN once...")
    dataset = generate_digit_dataset(**DATASET)
    network = build_network(
        tiny_serving_specs(), activation="hardware", seed=5, training_stream_length=256
    )
    Trainer(network, TrainingConfig(epochs=4, seed=1)).fit(
        dataset.train_images[:, None] * 2 - 1,
        dataset.train_labels,
        dataset.test_images[:, None] * 2 - 1,
        dataset.test_labels,
        verbose=False,
    )
    ScModel(
        network,
        stream_length=stream_length,
        seed=7,
        metadata={"arch": "tiny", "dataset": DATASET},
    ).save(path)
    print(f"saved model artifact to {path}")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=backend_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_backend_arguments(
        parser,
        default="bit-exact-packed",
        capability="progressive",
        include_workers=False,
        include_stream_length=True,
        backend_help="progressive execution backend the worker replicas run",
    )
    parser.add_argument(
        "--model",
        type=Path,
        default=DEFAULT_MODEL,
        help="model artifact directory (trained and saved on first run)",
    )
    parser.add_argument(
        "--requests", type=int, default=32, help="single-image requests to submit"
    )
    args = parser.parse_args()

    if not args.model.exists():
        train_and_save(args.model, args.stream_length)

    backend = args.backend
    config = ServiceConfig(
        backend=backend,
        max_batch_size=16,
        num_workers=2,
        cache_capacity=256,
    )
    session = Session.from_artifact(args.model, backend=backend)
    if session.stream_length != args.stream_length:
        print(
            f"note: serving at the artifact's stream length "
            f"N={session.stream_length} (--stream-length {args.stream_length} "
            f"only applies when training a new artifact; delete "
            f"{args.model} to retrain)"
        )
    dataset = generate_digit_dataset(
        **{**DATASET, **(session.model.metadata.get("dataset") or {})}
    )
    test_images = dataset.test_images[:, None]
    n = args.requests
    stream_length = session.stream_length
    print(
        f"serving {n} requests + {n // 4} repeats through "
        f"{config.num_workers} worker thread(s) ({backend}, "
        f"N={stream_length}) from {args.model.name}..."
    )
    with session, session.serve(config) as service:
        futures = [service.submit(test_images[i]) for i in range(n)]
        responses = [future.result(timeout=300) for future in futures]
        # A second wave repeating earlier images exercises the cache
        # (submitted after the first wave resolved, so the results are in).
        repeats = [service.submit(test_images[i]) for i in range(n // 4)]
        responses += [future.result(timeout=300) for future in repeats]
        # One deadline-budgeted request: an (effectively) expired budget
        # forces the earliest checkpoint instead of the full stream.
        hurried_index = min(n, test_images.shape[0] - 1)
        hurried = service.infer(
            test_images[hurried_index],
            PredictOptions(deadline_ms=1e-3),
            timeout=300,
        )
        snapshot = service.metrics.snapshot()

    rows = []
    for i, response in enumerate(responses[: min(8, len(responses))]):
        rows.append(
            [
                f"request {i}",
                int(response.predictions[0]),
                int(dataset.test_labels[i]),
                f"{int(response.exit_checkpoints[0])}/{stream_length}",
                "hit" if bool(response.cached[0]) else "miss",
                f"{response.latency_seconds * 1e3:.1f} ms",
            ]
        )
    print()
    print(
        format_table(
            ["Request", "Predicted", "Label", "Exit cycles", "Cache", "Latency"],
            rows,
            title="First responses",
        )
    )
    correct = sum(
        int(response.predictions[0]) == int(dataset.test_labels[i % n])
        for i, response in enumerate(responses)
    )
    print(f"\naccuracy over served requests: {correct / len(responses):.3f}")
    print(f"mean micro-batch size:         {snapshot['mean_batch_size']:.1f}")
    if snapshot["mean_exit_checkpoint"] is not None:
        print(
            f"mean exit checkpoint:          "
            f"{snapshot['mean_exit_checkpoint']:.0f} / {stream_length} "
            f"({snapshot['cycle_reduction']:.2f}x stream-cycle reduction)"
        )
    print(f"cache hit rate:                {snapshot['cache_hit_rate']:.3f}")
    print(
        f"latency p50 / p95 / p99:       "
        f"{snapshot['latency_ms']['p50']:.1f} / "
        f"{snapshot['latency_ms']['p95']:.1f} / "
        f"{snapshot['latency_ms']['p99']:.1f} ms"
    )
    print(
        f"deadline-budgeted request:     exited at "
        f"{int(hurried.exit_checkpoints[0])}/{stream_length} cycles "
        f"(deadline 0.001 ms)"
    )


if __name__ == "__main__":
    main()
