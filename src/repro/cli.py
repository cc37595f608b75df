"""``python -m repro``: train, predict, evaluate and serve SC models.

The command-line face of the public API (:mod:`repro.api`) -- every
subcommand is a thin wrapper over :class:`~repro.api.ScModel` and
:class:`~repro.api.Session`, so anything the CLI does is reproducible
in-process with three lines of Python:

* ``train``     -- SC-aware training on the synthetic digit dataset,
  exported as a versioned model artifact.
* ``predict``   -- load an artifact and score test images (optionally as
  JSON, for the CI bit-exactness cross-check).
* ``evaluate``  -- accuracy of an artifact under any registered backend.
* ``serve``     -- stand up the micro-batching service on an artifact and
  push a demo burst through it (``--metrics-file`` writes the snapshot in
  Prometheus text exposition format, kernel-tier counters included); with
  ``--http-port`` it instead runs the threaded ``http.server`` front end
  (unary + streaming prediction, ``/metrics``, hot-reloadable multi-model
  ``--registry`` mode) until SIGINT/SIGTERM drains it.
* ``models``    -- list a registry directory's (or explicit artifacts')
  catalog metadata: name, format version, weight bits, stream length,
  manifest sha256.
* ``trace``     -- serve a burst at trace sample rate 1.0 and print every
  request's span tree and queue/service breakdown.
* ``backends``  -- list the execution-backend registry.

This module also hosts the **shared backend argparse wiring**
(:func:`add_backend_arguments` / :func:`backend_epilog`), used by every
example script and the CLI alike so the ``--backend`` / ``--workers`` /
``--stream-length`` flags cannot drift between entry points.  Heavy
imports happen inside the subcommand handlers to keep ``python -m repro
backends --help`` instant.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = [
    "add_backend_arguments",
    "backend_epilog",
    "tiny_serving_specs",
    "QUICK_DATASET",
    "main",
]


# -- shared backend argparse wiring (examples + CLI) ---------------------------


def add_backend_arguments(
    parser: argparse.ArgumentParser,
    default: str | None = "bit-exact-packed",
    capability: str | None = None,
    include_workers: bool = True,
    include_stream_length: bool = False,
    stream_length_default: int = 1024,
    backend_help: str | None = None,
) -> None:
    """Add the standard ``--backend`` / ``--workers`` / ``--stream-length``
    flags to a parser.

    One helper instead of the near-identical wiring formerly copied
    across every example: choices come from the live registry (optionally
    filtered by a capability flag such as ``"bit_exact"`` or
    ``"progressive"``), and ``--workers`` feeds the ``workers`` option of
    :meth:`repro.api.Session.predict` / :meth:`~repro.api.Session.evaluate`.

    Args:
        parser: the parser (or subparser) to extend.
        default: default backend name (``None`` makes the flag optional
            with no default).
        capability: only offer backends whose class sets this capability
            flag (e.g. ``"bit_exact"``, ``"progressive"``).
        include_workers: add ``--workers`` (thread sharding of a batch).
        include_stream_length: add ``--stream-length``.
        stream_length_default: default for ``--stream-length``.
        backend_help: override the ``--backend`` help text.
    """
    from repro.backends import backend_class, backend_names

    names = [
        n
        for n in backend_names()
        if capability is None or getattr(backend_class(n), capability, False)
    ]
    parser.add_argument(
        "--backend",
        choices=names,
        default=default,
        help=backend_help
        or "execution backend from the registry (see the epilog)",
    )
    if include_stream_length:
        parser.add_argument(
            "--stream-length",
            type=int,
            default=stream_length_default,
            help="stochastic stream length N",
        )
    if include_workers:
        parser.add_argument(
            "--workers",
            type=int,
            default=None,
            help="shard each batch across this many threads (the backend "
            "must be batch-invariant; scores stay bit-identical)",
        )


def backend_epilog() -> str:
    """Standard ``--help`` epilog listing every registered backend."""
    from repro.backends import describe_backends

    return "available backends:\n" + describe_backends()


# -- dataset / architecture plumbing shared by the subcommands -----------------

#: Default synthetic-dataset parameters recorded into trained artifacts
#: (predict/evaluate/serve regenerate the *same* held-out split from the
#: artifact's metadata, so every entry point scores identical images).
_DEFAULT_DATASET = {"n_train": 3000, "n_test": 600, "seed": 2019}

#: The reduced dataset of ``--quick`` training runs -- shared with
#: ``examples/serve_demo.py`` so the CLI- and demo-trained artifacts
#: score the same held-out split.
QUICK_DATASET = {"n_train": 800, "n_test": 128, "seed": 2019}


def tiny_serving_specs():
    """The small serving CNN used by the CLI, demos and benchmarks.

    One definition instead of per-script copies: the ``train --arch
    tiny`` subcommand, ``examples/serve_demo.py`` and
    ``benchmarks/bench_serve.py`` all build this exact architecture, so
    their artifacts stay interchangeable.
    """
    from repro.nn.architectures import LayerSpec

    return [
        LayerSpec(kind="conv", name="Conv3_x", kernel=3, channels=8),
        LayerSpec(kind="pool", name="AvgPool", kernel=4, stride=4),
        LayerSpec(kind="fc", name="FC64", units=64),
        LayerSpec(kind="output", name="OutLayer", units=10),
    ]


def _build_architecture(arch: str, seed: int, training_stream_length: int):
    from repro.nn.architectures import build_dnn, build_network, build_snn

    if arch == "tiny":
        return build_network(
            tiny_serving_specs(),
            activation="hardware",
            seed=seed,
            name="tiny",
            training_stream_length=training_stream_length,
        )
    if arch == "snn":
        return build_snn(seed=seed, training_stream_length=training_stream_length)
    if arch == "dnn":
        return build_dnn(seed=seed, training_stream_length=training_stream_length)
    raise ValueError(arch)  # pragma: no cover - argparse choices guard this


def _dataset_from_metadata(metadata: dict):
    """Regenerate the dataset an artifact was trained against."""
    from repro.datasets import generate_digit_dataset

    params = dict(_DEFAULT_DATASET)
    params.update(metadata.get("dataset") or {})
    return generate_digit_dataset(
        params["n_train"], params["n_test"], seed=params["seed"]
    )


def _test_images(session, count: int | None):
    """Held-out test images/labels for a session's model."""
    dataset = _dataset_from_metadata(session.model.metadata)
    images = dataset.test_images[:count, None]
    labels = dataset.test_labels[: images.shape[0]]
    return images, labels


# -- subcommands ---------------------------------------------------------------


def _cmd_train(args: argparse.Namespace) -> int:
    import time

    from repro.api import ScModel
    from repro.datasets import generate_digit_dataset
    from repro.nn import Trainer, TrainingConfig

    dataset_params = dict(QUICK_DATASET if args.quick else _DEFAULT_DATASET)
    if args.train_images is not None:
        dataset_params["n_train"] = args.train_images
    if args.test_images is not None:
        dataset_params["n_test"] = args.test_images
    dataset_params["seed"] = args.data_seed
    epochs = args.epochs or (2 if args.quick else 6)

    print(
        f"training {args.arch} on {dataset_params['n_train']} synthetic "
        f"digits ({epochs} epochs, SC-aware)..."
    )
    dataset = generate_digit_dataset(**dataset_params)
    network = _build_architecture(args.arch, args.seed, args.stream_length)
    trainer = Trainer(network, TrainingConfig(epochs=epochs, seed=args.seed))
    started = time.perf_counter()
    history = trainer.fit(
        dataset.train_images[:, None] * 2 - 1,
        dataset.train_labels,
        dataset.test_images[:, None] * 2 - 1,
        dataset.test_labels,
        verbose=not args.quiet,
    )
    elapsed = time.perf_counter() - started

    model = ScModel(
        network,
        weight_bits=args.weight_bits,
        stream_length=args.stream_length,
        seed=args.seed,
        metadata={
            "arch": args.arch,
            "dataset": dataset_params,
            "training": {
                "epochs": epochs,
                "seconds": round(elapsed, 2),
                "final_test_accuracy": history.final_test_accuracy,
            },
        },
    )
    path = model.save(args.output)
    print(
        f"trained to {history.final_test_accuracy:.4f} held-out accuracy "
        f"in {elapsed:.1f} s"
    )
    print(f"saved model artifact to {path}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.api import PredictOptions, Session

    options = PredictOptions(
        stream_length=args.stream_length,
        checkpoints=tuple(args.checkpoints) if args.checkpoints else None,
        early_exit=True if args.early_exit else None,
        workers=args.workers,
    )
    with Session.from_artifact(args.model, backend=args.backend) as session:
        images, labels = _test_images(session, args.images)
        result = session.predict(images, options)
    correct = int((result.predictions == labels).sum())
    for i, (prediction, label) in enumerate(zip(result.predictions, labels)):
        mark = "ok " if prediction == label else "MISS"
        print(
            f"image {i:3d}: predicted {int(prediction)} (label {int(label)}) "
            f"{mark} exit {int(result.exit_checkpoints[i])}/"
            f"{session.stream_length}"
        )
    print(
        f"{correct}/{images.shape[0]} correct under {result.backend} "
        f"(N = {result.stream_length})"
    )
    if args.json:
        payload = {
            "backend": result.backend,
            "stream_length": result.stream_length,
            "checkpoints": list(result.checkpoints),
            "scores": np.asarray(result.scores).tolist(),
            "predictions": np.asarray(result.predictions).tolist(),
            "exit_checkpoints": np.asarray(result.exit_checkpoints).tolist(),
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.api import Session

    with Session.from_artifact(args.model, backend=args.backend) as session:
        images, labels = _test_images(session, args.max_images)
        result = session.evaluate(images, labels, workers=args.workers)
    print(
        f"accuracy {result.accuracy:.4f} over {result.n_images} images "
        f"under {result.mode} (N = {result.stream_length})"
    )
    return 0


class _GracefulExit(Exception):
    """SIGINT/SIGTERM arrived: drain and flush instead of dying mid-write."""


def _install_drain_handlers():
    """Route SIGINT/SIGTERM into :class:`_GracefulExit` (main thread).

    Returns the previous handlers for :func:`_restore_handlers`; a
    second signal during the drain is ignored rather than re-raised, so
    the flush-and-exit path cannot be interrupted by an impatient ^C^C.
    """
    import signal

    def handler(signum, frame):
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, signal.SIG_IGN)
        raise _GracefulExit(signal.Signals(signum).name)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, handler)
    return previous


def _restore_handlers(previous) -> None:
    import signal

    for sig, old in previous.items():
        signal.signal(sig, old)


def _given(**flags) -> dict:
    """The tuning flags that were given: an omitted one (``None``) leaves
    ServiceConfig's default in force, and a given ``0`` still reaches its
    validation."""
    return {name: value for name, value in flags.items() if value is not None}


def _cmd_serve_http(args: argparse.Namespace, backend: str, config) -> int:
    """``serve --http-port``: run the network front end until a signal.

    Serves one ``--model`` artifact (optionally renamed with
    ``--model-name``) or a whole ``--registry`` directory of artifacts,
    over an in-process service per model or -- with ``--fleet-workers``
    -- a supervised multi-process fleet per model.  SIGINT/SIGTERM
    drains open HTTP connections and replica pools, then exits 0.
    """
    import threading

    from repro.config import FleetConfig, HttpConfig
    from repro.serve import ModelRegistry, ScHttpServer

    fleet_config = None
    if args.fleet_workers:
        fleet_config = FleetConfig(
            num_workers=args.fleet_workers,
            service=config,
            max_inflight=args.max_queue_depth,
            hedge_after_ms=args.hedge_after_ms,
        )
    if args.registry:
        registry = ModelRegistry(
            root=args.registry, service=config, fleet=fleet_config
        )
    else:
        name = args.model_name or Path(args.model).name
        registry = ModelRegistry(
            models={name: args.model}, service=config, fleet=fleet_config
        )
    http_config = HttpConfig(
        host=args.http_host,
        port=args.http_port,
        reload_interval_s=args.reload_interval,
    )
    server = ScHttpServer(registry, http_config)
    previous_handlers = _install_drain_handlers()
    try:
        server.start_background()
        mode = (
            f"{args.fleet_workers}-process fleets"
            if args.fleet_workers
            else "in-process services"
        )
        print(
            f"serving {len(registry)} model(s) on "
            f"http://{server.host}:{server.port} ({mode}, backend "
            f"{backend}); SIGINT/SIGTERM drains",
            flush=True,
        )
        threading.Event().wait()
    except _GracefulExit:
        print(
            "\ndraining open connections and replica pools...", flush=True
        )
    finally:
        server.close()
        _restore_handlers(previous_handlers)
        registry.close()
    print("drained cleanly")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import PredictOptions, Session
    from repro.config import FleetConfig, ServiceConfig
    from repro.errors import FleetError, InferenceError, ServiceOverloadError

    if args.registry and args.model:
        print("serve: use --model or --registry, not both", file=sys.stderr)
        return 2
    if args.registry and args.http_port is None:
        print(
            "serve: --registry mode needs --http-port (the demo burst "
            "serves a single --model)",
            file=sys.stderr,
        )
        return 2
    if not args.registry and not args.model:
        print("serve: --model (or --registry) is required", file=sys.stderr)
        return 2

    backend = args.backend
    config = ServiceConfig(
        backend=backend,
        max_queue_depth=args.max_queue_depth,
        event_log_path=args.trace_file,
        **_given(
            max_batch_size=args.max_batch_size,
            num_workers=args.service_workers,
            cache_capacity=args.cache_capacity,
            trace_sample_rate=args.trace_sample_rate,
        ),
    )
    if args.http_port is not None or args.registry:
        return _cmd_serve_http(args, backend, config)
    # `is not None` (not truthiness): a zero deadline must reach the
    # PredictOptions validator and raise, not silently mean "no deadline".
    options = (
        PredictOptions(deadline_ms=args.deadline_ms)
        if args.deadline_ms is not None
        else None
    )
    fleet = args.fleet_workers
    interrupted = None
    responses: dict = {}
    futures: dict = {}
    snapshot = None
    previous_handlers = _install_drain_handlers()
    try:
        with Session.from_artifact(args.model, backend=backend) as session:
            images, labels = _test_images(session, args.requests)
            n = images.shape[0]
            if fleet:
                server = session.serve_fleet(
                    FleetConfig(
                        num_workers=fleet,
                        service=config,
                        max_inflight=args.max_queue_depth,
                        hedge_after_ms=args.hedge_after_ms,
                    )
                )
                print(
                    f"serving {n} single-image requests across "
                    f"{fleet} worker processes ({backend}, "
                    f"N = {session.stream_length})..."
                )
            else:
                server = session.serve(config)
                print(
                    f"serving {n} single-image requests through {backend} "
                    f"(N = {session.stream_length})..."
                )
            try:
                # A request shed at submit (bounded admission) or by its
                # worker (a deadline that ran out in the queue), or failed
                # with a typed error, is simply not answered: the point of
                # fast rejection is that callers decide retry.
                for i in range(n):
                    try:
                        futures[i] = server.submit(images[i], options)
                    except (ServiceOverloadError, FleetError):
                        pass
                for i, future in futures.items():
                    try:
                        responses[i] = future.result(timeout=600)
                    except (ServiceOverloadError, FleetError, InferenceError):
                        pass
                snapshot = server.snapshot()
            except _GracefulExit as exc:
                interrupted = str(exc)
                print(
                    f"\nreceived {interrupted}: draining in-flight "
                    "requests and flushing outputs..."
                )
            finally:
                # close() is the graceful drain: stop admitting, finish
                # the in-flight work, then shut down.  On the signal path
                # the snapshot is taken afterwards so drained requests
                # are counted in the flushed metrics.
                server.close()
                for i, future in futures.items():
                    if i not in responses and future.done():
                        try:
                            responses[i] = future.result()
                        except Exception:
                            pass
                if snapshot is None:
                    try:
                        snapshot = server.snapshot()
                    except Exception:
                        snapshot = None
            stream_length = session.stream_length
    finally:
        _restore_handlers(previous_handlers)
    answered = len(responses)
    correct = sum(
        int(r.predictions[0]) == int(labels[i])
        for i, r in responses.items()
    )
    if answered:
        print(
            f"accuracy over served requests: {correct / answered:.3f} "
            f"({answered}/{n} answered)"
        )
    else:
        print(f"no request answered (0/{n})")
    if fleet:
        _print_fleet_summary(snapshot)
    else:
        _print_service_summary(snapshot, stream_length)
    if args.metrics_file and snapshot is not None:
        from repro.obs import prometheus_text

        Path(args.metrics_file).write_text(prometheus_text(snapshot))
        print(f"wrote Prometheus metrics to {args.metrics_file}")
    if args.trace_file:
        print(f"wrote trace/fault event log to {args.trace_file}")
    if interrupted is not None:
        import signal

        print(f"drained cleanly after {interrupted}")
        return 128 + int(getattr(signal.Signals, interrupted))
    return 0


def _print_service_summary(snapshot, stream_length: int) -> None:
    if snapshot is None:
        return
    shed = snapshot["faults"]["shed"]
    if shed["total"]:
        reasons = ", ".join(
            f"{reason}: {count}"
            for reason, count in sorted(shed.items())
            if reason != "total"
        )
        print(f"requests shed:                 {shed['total']} ({reasons})")
    print(f"mean micro-batch size:         {snapshot['mean_batch_size']:.1f}")
    if snapshot["mean_exit_checkpoint"] is not None:
        print(
            f"mean exit checkpoint:          "
            f"{snapshot['mean_exit_checkpoint']:.0f} / "
            f"{stream_length} "
            f"({snapshot['cycle_reduction']:.2f}x stream-cycle reduction)"
        )
    latency = snapshot["latency_ms"]
    if latency is not None:
        print(
            f"latency p50 / p95 / p99:       "
            f"{latency['p50']:.1f} / {latency['p95']:.1f} / "
            f"{latency['p99']:.1f} ms"
        )
    if snapshot.get("queue_time_ms") and snapshot.get("service_time_ms"):
        print(
            f"queue / service p50:           "
            f"{snapshot['queue_time_ms']['p50']:.1f} / "
            f"{snapshot['service_time_ms']['p50']:.1f} ms"
        )


def _print_fleet_summary(snapshot) -> None:
    if snapshot is None:
        return
    fleet = snapshot.get("fleet", {})
    print(
        f"fleet:                         "
        f"{fleet.get('workers_ready', 0)} workers ready, "
        f"{fleet.get('completed', 0)} completed, "
        f"{fleet.get('shed', 0)} shed"
    )
    if fleet.get("worker_deaths") or fleet.get("restarts"):
        print(
            f"supervision:                   "
            f"{fleet.get('worker_deaths', 0)} deaths, "
            f"{fleet.get('restarts', 0)} restarts, "
            f"{fleet.get('retries', 0)} request retries"
        )
    if fleet.get("hedges"):
        print(
            f"hedging:                       "
            f"{fleet.get('hedges', 0)} hedges, "
            f"{fleet.get('hedge_wins', 0)} won by the duplicate"
        )
    for slot, worker in sorted(
        (snapshot.get("workers") or {}).items(), key=lambda kv: str(kv[0])
    ):
        if not worker:
            print(f"worker {slot}:                      (not answering)")
            continue
        latency = worker.get("latency_ms") or {}
        p99 = latency.get("p99")
        p99_text = f"{p99:.1f} ms p99" if p99 is not None else "no latency"
        print(
            f"worker {slot}:                      "
            f"{worker.get('requests', 0)} requests, "
            f"{worker.get('batches', 0)} batches, {p99_text}"
        )


def _run_service_burst(session, config, count: int):
    """Push a burst of single-image requests through a service.

    Used by the ``trace`` subcommand: returns the responses (by request
    index) and the traces retained in the tracer's ring buffer.
    """
    images, _labels = _test_images(session, count)
    with session.serve(config) as service:
        futures = [
            service.submit(images[i]) for i in range(images.shape[0])
        ]
        responses = [f.result(timeout=600) for f in futures]
        traces = service.tracer.recent()
    return responses, traces


def _format_trace(trace: dict) -> str:
    """Render one completed trace dict as an indented span tree."""
    spans = trace["spans"]
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    lines = [f"trace {trace['trace_id']}"]

    def walk(span: dict, depth: int) -> None:
        duration = span["duration_ms"]
        timing = f"{duration:9.3f} ms" if duration is not None else "     open"
        notes = " ".join(
            f"{k}={v}" for k, v in (span.get("annotations") or {}).items()
        )
        lines.append(
            f"  {'  ' * depth}{span['name']:<16} {timing}"
            + (f"  {notes}" if notes else "")
        )
        for child in children.get(span["span_id"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.api import Session
    from repro.config import ServiceConfig

    config = ServiceConfig(
        backend=args.backend,
        trace_sample_rate=1.0,
        trace_capacity=max(256, args.requests),
        **_given(
            num_workers=args.service_workers,
            cache_capacity=args.cache_capacity,
        ),
    )
    with Session.from_artifact(args.model, backend=args.backend) as session:
        responses, traces = _run_service_burst(
            session, config, args.requests
        )
    for response in responses:
        summary = response.trace
        if summary is None:
            continue
        print(
            f"{summary.trace_id}: queue {summary.queue_ms:7.2f} ms + "
            f"service {summary.service_ms:7.2f} ms = "
            f"{summary.latency_ms:7.2f} ms  "
            f"replica={summary.replica} batch={summary.batch_seq} "
            f"retries={summary.retries}"
        )
    shown = traces[-args.show :] if args.show else traces
    for trace in shown:
        print()
        print(_format_trace(trace))
    if args.json:
        with Path(args.json).open("w", encoding="utf-8") as stream:
            for trace in traces:
                stream.write(json.dumps(trace) + "\n")
        print(f"\nwrote {len(traces)} traces to {args.json}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.backends import describe_backends

    print(describe_backends())
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    """List registry/artifact catalog metadata (manifests only).

    Reads nothing but ``manifest.json`` files -- no weights load, no
    replica pools spawn -- so it is safe to point at a production
    registry directory.
    """
    from repro.errors import ConfigurationError
    from repro.serve.registry import describe_artifact

    entries = []
    problems = []
    if args.registry:
        root = Path(args.registry)
        if not root.is_dir():
            print(f"models: no directory at {root}", file=sys.stderr)
            return 2
        for child in sorted(root.iterdir()):
            if not (child / "manifest.json").is_file():
                continue
            try:
                entries.append(describe_artifact(child))
            except ConfigurationError as exc:
                problems.append((child.name, str(exc)))
    for path in args.model or []:
        try:
            entries.append(describe_artifact(path))
        except ConfigurationError as exc:
            problems.append((str(path), str(exc)))
    if args.json:
        print(json.dumps([e.listing() for e in entries], indent=2))
    else:
        if entries:
            width = max(len(e.name) for e in entries)
            width = max(width, len("name"))
            print(
                f"{'name':<{width}}  version  bits  stream  "
                f"sha256        params"
            )
            for e in entries:
                print(
                    f"{e.name:<{width}}  {e.format_version:<7}  "
                    f"{e.weight_bits:<4}  {e.stream_length:<6}  "
                    f"{e.sha256[:12]}  {e.n_parameters}"
                )
        for name, problem in problems:
            print(f"unreadable artifact {name}: {problem}", file=sys.stderr)
    if not entries and not problems:
        print("no model artifacts found", file=sys.stderr)
        return 1
    return 0 if not problems else 1


# -- parser --------------------------------------------------------------------


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (exposed for docs/tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser(
        "train",
        help="train on the synthetic digit dataset and save a model artifact",
    )
    train.add_argument(
        "--output",
        default="artifacts/model",
        help="artifact directory to write (default: artifacts/model)",
    )
    train.add_argument(
        "--arch",
        choices=("tiny", "snn", "dnn"),
        default="tiny",
        help="architecture: the small serving CNN or the paper's Table 8 nets",
    )
    train.add_argument(
        "--quick", action="store_true", help="small dataset and epoch budget"
    )
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--train-images", type=int, default=None)
    train.add_argument("--test-images", type=int, default=None)
    train.add_argument("--stream-length", type=int, default=1024)
    train.add_argument("--weight-bits", type=int, default=10)
    train.add_argument("--seed", type=int, default=2019)
    train.add_argument("--data-seed", type=int, default=2019)
    train.add_argument(
        "--quiet", action="store_true", help="suppress per-epoch output"
    )
    train.set_defaults(func=_cmd_train)

    predict = commands.add_parser(
        "predict",
        help="score held-out images with a saved model artifact",
        epilog=None,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    predict.add_argument("--model", required=True, help="artifact directory")
    predict.add_argument(
        "--images", type=int, default=8, help="test images to score"
    )
    add_backend_arguments(predict)
    predict.add_argument(
        "--stream-length",
        type=int,
        default=None,
        help="per-request reduced stream length (prefix evaluation)",
    )
    predict.add_argument(
        "--checkpoints",
        type=_csv_ints,
        default=None,
        help="comma-separated checkpoint schedule (e.g. 128,256,512)",
    )
    predict.add_argument(
        "--early-exit",
        action="store_true",
        help="apply the stability+margin early-exit policy",
    )
    predict.add_argument(
        "--json", default=None, help="also write scores/predictions as JSON"
    )
    predict.set_defaults(func=_cmd_predict)

    evaluate = commands.add_parser(
        "evaluate", help="accuracy of a saved model artifact"
    )
    evaluate.add_argument("--model", required=True, help="artifact directory")
    evaluate.add_argument(
        "--max-images", type=int, default=None, help="cap on evaluated images"
    )
    add_backend_arguments(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    serve = commands.add_parser(
        "serve",
        help="run a demo burst through the micro-batching service, or "
        "(with --http-port) the threaded http.server front end",
    )
    serve.add_argument(
        "--model",
        default=None,
        help="artifact directory (required unless --registry is given)",
    )
    serve.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="serve over HTTP on this port instead of the demo burst "
        "(0 = ephemeral; runs until SIGINT/SIGTERM drains)",
    )
    serve.add_argument(
        "--http-host",
        default="127.0.0.1",
        help="interface the HTTP listener binds (default: loopback)",
    )
    serve.add_argument(
        "--registry",
        default=None,
        help="HTTP mode: serve every artifact subdirectory of this "
        "directory as a named model (hot-reloaded on manifest change "
        "when --reload-interval is set)",
    )
    serve.add_argument(
        "--model-name",
        default=None,
        help="HTTP mode: name the single --model artifact is served "
        "under (default: its directory name)",
    )
    serve.add_argument(
        "--reload-interval",
        type=float,
        default=None,
        help="HTTP mode: rescan the registry for changed/added/removed "
        "artifacts every this many seconds (hot reload)",
    )
    serve.add_argument(
        "--requests", type=int, default=32, help="single-image requests"
    )
    add_backend_arguments(
        serve, capability="progressive", include_workers=False
    )
    # Service tuning flags default to None: ServiceConfig's value holds.
    serve.add_argument("--max-batch-size", type=int, default=None)
    serve.add_argument(
        "--service-workers",
        type=int,
        default=None,
        help="service worker threads, each owning one backend replica",
    )
    serve.add_argument("--cache-capacity", type=int, default=None)
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request latency budget: a request still queued when "
        "it runs out is shed unanswered",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="bounded admission: shed submits past this many in-flight "
        "requests (default: unbounded)",
    )
    serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=None,
        help="fraction of requests that record a full span trace "
        "(0 disables tracing, 1 traces everything)",
    )
    serve.add_argument(
        "--metrics-file",
        default=None,
        help="write the final service snapshot in Prometheus text "
        "exposition format to this file",
    )
    serve.add_argument(
        "--trace-file",
        default=None,
        help="stream sampled traces and fault events to this JSONL file",
    )
    serve.add_argument(
        "--fleet-workers",
        type=int,
        default=None,
        help="serve through a supervised multi-process worker fleet of "
        "this many processes (heartbeats, crash restart, failover) "
        "instead of one in-process service",
    )
    serve.add_argument(
        "--hedge-after-ms",
        type=float,
        default=None,
        help="fleet mode: speculatively re-dispatch a request to a "
        "second worker after this long (tail-latency hedging)",
    )
    serve.set_defaults(func=_cmd_serve)

    trace = commands.add_parser(
        "trace",
        help="serve a burst at sample rate 1.0 and print every span tree",
    )
    trace.add_argument("--model", required=True, help="artifact directory")
    trace.add_argument(
        "--requests", type=int, default=8, help="single-image requests"
    )
    add_backend_arguments(
        trace, capability="progressive", include_workers=False
    )
    trace.add_argument("--service-workers", type=int, default=None)
    trace.add_argument("--cache-capacity", type=int, default=None)
    trace.add_argument(
        "--show",
        type=int,
        default=3,
        help="span trees printed in full (most recent; 0 = all)",
    )
    trace.add_argument(
        "--json", default=None, help="also write every trace as JSONL"
    )
    trace.set_defaults(func=_cmd_trace)

    backends = commands.add_parser(
        "backends", help="list the execution-backend registry"
    )
    backends.set_defaults(func=_cmd_backends)

    models = commands.add_parser(
        "models",
        help="list model-artifact catalog metadata (manifests only)",
    )
    models.add_argument(
        "--registry",
        default=None,
        help="directory whose artifact subdirectories are listed",
    )
    models.add_argument(
        "--model",
        action="append",
        default=None,
        help="explicit artifact directory to list (repeatable)",
    )
    models.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    models.set_defaults(func=_cmd_models)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (also invoked by ``python -m repro``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module CLI convenience
    sys.exit(main())
