#!/usr/bin/env python
"""Serving benchmark: early-exit cycle savings + the serving checks perfbench lacks.

Drives the serving stack (:mod:`repro.serve`) against the synthetic
MNIST test set and writes ``BENCH_serve.json``.  The served network is a
**model artifact** (:class:`repro.api.ScModel`): the first run trains it
once and saves it next to the report; every run -- including the first --
then loads the artifact back and serves the loaded model, exercising the
train-once / deploy-forever path end to end (pass ``--artifact`` to
relocate it, delete the directory to retrain).

Latency and throughput of the served product are perfbench's to measure
(``perfbench/``: ``serve-single`` and ``http-fleet-mixed``).  This
harness keeps the checks perfbench does not make, and runs every one of
them but the first on the product, ``bit-exact-packed``.  Sections:

* **early exit** -- a network is trained, then evaluated by the
  statistical model (``sc-fast``) at the progressive stream-length
  checkpoints (``N/8, N/4, N/2, N`` at ``N = 1024``); the report records
  the mean exit checkpoint, the mean stream-cycle reduction (asserted
  >= 1.5x), and that accuracy is unchanged versus the full-stream
  evaluation.  This is the statistical model's number.
* **bit-exact spot check** -- the word-packed backend's prefix-popcount
  checkpoints are asserted to reproduce the full-stream scores exactly at
  the final checkpoint, with early-exit predictions matching the
  full-stream predictions; its cycle reduction is the bit-exact path's.
* **cache** -- repeated traffic against the LRU result cache, reporting
  the hit rate.
* **observability** -- a burst at ``trace_sample_rate=1.0`` asserting
  that every response carries a trace whose queue + service split prices
  the measured latency exactly, that the Prometheus exposition of the
  service snapshot parses cleanly, and an **overhead guard**: p99
  latency with sampling at 0.01 must stay within 5% of sampling off
  (best of several attempts, so a single noisy run cannot fail CI).
* **fault sweep** (``--faults``) -- a fault-free baseline burst asserting
  *zero SLO violations* (no request shed, failed or unresolved), then a
  burst under an injected replica crash, straggler and poisoned batch
  (:mod:`repro.serve.faults`) asserting the supervision accounting:
  every future resolves, the crash restarts the replica and the retried
  batch succeeds, the poison surfaces as typed failures.
* **fleet sweep** (``--fleet``) -- the multi-process
  :class:`~repro.serve.FleetRouter` under the same discipline: burst
  throughput against 1/2/4 worker processes (a point with more workers
  than the host has CPUs is written as ``skipped``), zero drops while
  every worker is rolled, and SLO accounting under an injected
  :class:`~repro.serve.WorkerKill` (every future resolves, the death is
  restarted, stranded requests retried).
* **http overhead** (``--http``) -- the network front end
  (:class:`~repro.serve.ScHttpServer` over a
  :class:`~repro.serve.ModelRegistry`): unary requests at a steady rate
  below capacity, each request's overhead being its client-observed
  latency minus the ``latency_ms`` the server reports for it; every
  request must answer 200 and the median overhead must stay within
  ``MAX_HTTP_OVERHEAD_MS``.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke] [--faults]
        [--fleet] [--http] [--output PATH]

``--smoke`` (alias ``--quick``) shrinks the training budget and the
request bursts (used by the CI smoke job and ``tests/test_serve.py``);
every assertion holds in both modes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import ScModel
from repro.backends import create_backend
from repro.cli import tiny_serving_specs
from repro.config import ServiceConfig
from repro.datasets import generate_digit_dataset
from repro.nn import Trainer, TrainingConfig
from repro.nn.architectures import build_network
from repro.serve import ScInferenceService, progressive_forward, resolve_checkpoints

REPO_ROOT = Path(__file__).resolve().parent.parent

STREAM_LENGTH = 1024

#: The served product: every section but the statistical early exit runs it.
BACKEND = "bit-exact-packed"

#: Early-exit policy used throughout the benchmark (the ServiceConfig
#: defaults, restated here so the report is self-describing).
MARGIN = 0.1
STABLE_CHECKPOINTS = 2

#: Acceptance floor on the mean stream-cycle reduction from early exit.
MIN_CYCLE_REDUCTION = 1.5

#: Overhead guard: p99 latency with trace sampling at 0.01 must stay
#: under this multiple of the sampling-off p99 (best of several runs).
MAX_OBS_OVERHEAD = 1.05

#: HTTP overhead guard: the median of client latency minus the
#: server-reported ``latency_ms`` must stay under this many milliseconds.
#: Host drift slows both terms alike and cancels in the difference.
MAX_HTTP_OVERHEAD_MS = 6.0

#: Steady offered rate of the HTTP overhead guard, well below capacity.
HTTP_RATE = 20.0

#: Margin for the bit-exact packed spot check.  Bit-exact prefix scores
#: carry the *actual* decoding noise of short streams (the score quantum
#: at checkpoint N/8 = 128 is already 2/128), so the policy needs a wider
#: confidence gap than the statistical model to keep early predictions
#: glued to the full-stream ones.
PACKED_MARGIN = 0.25


def _train_serving_network(smoke: bool, artifact: Path) -> None:
    """One-time training of the served CNN, exported as a model artifact."""
    n_train, n_test, epochs = (800, 128, 4) if smoke else (2000, 300, 8)
    print(f"dataset: {n_train} train / {n_test} test images")
    dataset = generate_digit_dataset(n_train, n_test, seed=2019)
    network = build_network(
        tiny_serving_specs(),
        activation="hardware",
        seed=5,
        training_stream_length=256,
    )
    trainer = Trainer(network, TrainingConfig(epochs=epochs, seed=1))
    start = time.perf_counter()
    trainer.fit(
        dataset.train_images[:, None] * 2 - 1,
        dataset.train_labels,
        dataset.test_images[:, None] * 2 - 1,
        dataset.test_labels,
        verbose=False,
    )
    print(f"training took {time.perf_counter() - start:.1f} s")
    ScModel(
        network,
        stream_length=STREAM_LENGTH,
        seed=7,
        metadata={
            "arch": "tiny",
            "smoke": smoke,
            "dataset": {"n_train": n_train, "n_test": n_test, "seed": 2019},
            "training": {"epochs": epochs},
        },
    ).save(artifact)
    print(f"saved model artifact to {artifact}")


def _load_served_model(smoke: bool, artifact: Path):
    """The benchmark's model, always loaded from its artifact.

    Training happens at most once per training budget; even a fresh run
    reloads the artifact it just wrote, so the serving sections below
    always execute the load-from-disk path (bit-identical to the trained
    network by the artifact round-trip contract).  An artifact trained
    under the *other* budget (smoke vs full) is retrained rather than
    reused -- the report's thresholds assume its own training budget.
    """
    reused = (artifact / "manifest.json").exists()
    if reused:
        metadata = ScModel.read_manifest(artifact).get("metadata") or {}
        if "smoke" not in metadata:
            # Not one of this benchmark's own artifacts (e.g. a model
            # trained via `python -m repro train`): refuse to overwrite
            # it rather than silently destroying the user's weights.
            raise SystemExit(
                f"{artifact} was not trained by bench_serve (no 'smoke' "
                "marker in its metadata); point --artifact at an empty "
                "path to train the benchmark model there"
            )
        if metadata["smoke"] != smoke:
            print(
                f"artifact {artifact} was trained under a different budget "
                f"(smoke != {smoke}); retraining"
            )
            reused = False
    if not reused:
        _train_serving_network(smoke, artifact)
    else:
        print(f"reusing model artifact {artifact}")
    model = ScModel.load(artifact)
    dataset = generate_digit_dataset(**model.metadata["dataset"])
    return model, dataset.test_images[:, None], dataset.test_labels, reused


def bench_early_exit(mapper, images, labels) -> dict:
    """Progressive early exit on the full test set (fast statistical model)."""
    backend = create_backend("sc-fast", mapper)
    checkpoints = resolve_checkpoints(mapper.stream_length)
    result = progressive_forward(
        backend,
        images,
        checkpoints=checkpoints,
        margin=MARGIN,
        stable_checkpoints=STABLE_CHECKPOINTS,
    )
    full_scores = result.checkpoint_scores[-1]
    full_predictions = np.argmax(full_scores, axis=-1)
    accuracy_full = float((full_predictions == labels).mean())
    accuracy_early = float((result.predictions == labels).mean())
    agreement = float((result.predictions == full_predictions).mean())
    entry = {
        "backend": backend.name,
        "n_images": int(images.shape[0]),
        "stream_length": mapper.stream_length,
        "checkpoints": list(checkpoints),
        "margin": MARGIN,
        "stable_checkpoints": STABLE_CHECKPOINTS,
        "mean_exit_checkpoint": result.mean_exit_checkpoint,
        "cycle_reduction": result.cycle_reduction,
        "exit_histogram": {
            str(p): int((result.exit_checkpoints == p).sum())
            for p in checkpoints
        },
        "accuracy_full": accuracy_full,
        "accuracy_early": accuracy_early,
        "accuracy_unchanged": accuracy_early == accuracy_full,
        "prediction_agreement": agreement,
    }
    print(
        f"  early exit: mean checkpoint {entry['mean_exit_checkpoint']:.0f} / "
        f"{mapper.stream_length} cycles -> {entry['cycle_reduction']:.2f}x "
        f"reduction, accuracy {accuracy_early:.4f} (full {accuracy_full:.4f})"
    )
    assert entry["cycle_reduction"] >= MIN_CYCLE_REDUCTION, (
        f"early exit saved only {entry['cycle_reduction']:.2f}x mean stream "
        f"cycles (acceptance floor {MIN_CYCLE_REDUCTION}x)"
    )
    assert entry["accuracy_unchanged"], (
        f"early exit changed accuracy: {accuracy_early:.4f} vs "
        f"{accuracy_full:.4f} full-stream"
    )
    return entry


def bench_packed_prefix(mapper, images, labels, n_images: int) -> dict:
    """Bit-exact prefix-popcount checkpoints on the packed data plane."""
    backend = create_backend("bit-exact-packed", mapper)
    subset = images[:n_images]
    checkpoints = resolve_checkpoints(mapper.stream_length)
    result = progressive_forward(
        backend,
        subset,
        checkpoints=checkpoints,
        margin=PACKED_MARGIN,
        stable_checkpoints=STABLE_CHECKPOINTS,
    )
    full = backend.forward(subset)
    exact = np.array_equal(result.checkpoint_scores[-1], full)
    predictions_match = bool(
        np.all(result.predictions == np.argmax(full, axis=-1))
    )
    assert exact, "prefix popcount at checkpoint N differs from full decode"
    assert predictions_match, "packed early exit changed a prediction"
    entry = {
        "backend": backend.name,
        "n_images": int(subset.shape[0]),
        "margin": PACKED_MARGIN,
        "last_checkpoint_equals_forward": exact,
        "early_exit_predictions_match_full": predictions_match,
        "mean_exit_checkpoint": result.mean_exit_checkpoint,
        "cycle_reduction": result.cycle_reduction,
    }
    print(
        f"  packed prefix check: {n_images} images bit-exact at N, "
        f"{entry['cycle_reduction']:.2f}x cycle reduction"
    )
    return entry


def _service_config(**overrides) -> ServiceConfig:
    """The served configuration: the product backend on a 2-replica pool
    with the cache off, under the benchmark's early-exit policy."""
    settings = dict(
        backend=BACKEND,
        max_batch_size=16,
        max_wait_ms=2.0,
        num_workers=2,
        cache_capacity=0,
        early_exit=True,
        margin=MARGIN,
        stable_checkpoints=STABLE_CHECKPOINTS,
    )
    settings.update(overrides)
    return ServiceConfig(**settings)


def bench_cache(mapper, images, n_unique: int, repeats: int) -> dict:
    """Repeated traffic over a small working set: the LRU cache pays."""
    config = _service_config(max_wait_ms=1.0, num_workers=1, cache_capacity=256)
    with ScInferenceService(mapper, config) as service:
        for _ in range(repeats):
            futures = [service.submit(images[i]) for i in range(n_unique)]
            for future in futures:
                future.result(timeout=120)
        stats = service.cache.stats()
        snapshot = service.metrics.snapshot()
    expected = (repeats - 1) / repeats
    entry = {
        "unique_images": n_unique,
        "repeats": repeats,
        "hit_rate": stats["hit_rate"],
        "expected_hit_rate": expected,
        "cache_hits": snapshot["cache_hits"],
    }
    print(
        f"  cache: {n_unique} images x {repeats} rounds -> hit rate "
        f"{stats['hit_rate']:.3f} (expected {expected:.3f})"
    )
    assert stats["hit_rate"] == expected, "LRU cache missed repeated traffic"
    return entry


def bench_obs(mapper, images, smoke: bool) -> dict:
    """Observability sweep: trace completeness, exposition, overhead guard.

    Three assertions back the ``repro.obs`` layer:

    * at ``trace_sample_rate=1.0`` **every** response carries a
      :class:`~repro.obs.TraceSummary` whose queue + service split sums
      to the measured latency (same ``perf_counter`` marks, so the match
      is exact up to float rounding);
    * the Prometheus text exposition of the full service snapshot
      (metrics + kernel counters + workspaces + tracer state) passes
      :func:`~repro.obs.validate_exposition`;
    * the **overhead guard**: p99 latency with sampling at the
      production-ish rate 0.01 stays within ``MAX_OBS_OVERHEAD`` of
      sampling off.  Scheduler jitter dwarfs the tracer's cost on any
      single run, so the guard keeps the *best* ratio over a few
      attempts -- the tracer only fails it if it is slow every time.
    """
    from repro.obs import prometheus_text, validate_exposition

    n_requests = 32 if smoke else 96

    def _drive(rate: float):
        config = _service_config(trace_sample_rate=rate)
        with ScInferenceService(mapper, config) as service:
            futures = [
                service.submit(images[i % images.shape[0]])
                for i in range(n_requests)
            ]
            responses = [future.result(timeout=120) for future in futures]
            snapshot = service.snapshot()
        return responses, snapshot

    responses, snapshot = _drive(1.0)
    traced = [r for r in responses if r.trace is not None]
    assert len(traced) == n_requests, (
        f"sampling at 1.0 traced only {len(traced)}/{n_requests} requests"
    )
    worst_split = 0.0
    for response in traced:
        trace = response.trace
        split = abs(trace.queue_ms + trace.service_ms - trace.latency_ms)
        worst_split = max(worst_split, split)
        assert split < 1e-6, (
            f"trace {trace.trace_id}: queue {trace.queue_ms} + service "
            f"{trace.service_ms} != latency {trace.latency_ms}"
        )
        assert trace.stages, f"trace {trace.trace_id} recorded no spans"
    families = validate_exposition(prometheus_text(snapshot))
    print(
        f"  tracing: {len(traced)}/{n_requests} responses traced, "
        f"queue+service split exact (worst residue {worst_split:.2e} ms), "
        f"exposition valid ({len(families)} families)"
    )

    attempts = 3 if smoke else 5
    best_ratio = float("inf")
    baseline_p99 = sampled_p99 = None
    for _ in range(attempts):
        _, off = _drive(0.0)
        _, on = _drive(0.01)
        p99_off = off["latency_ms"]["p99"]
        p99_on = on["latency_ms"]["p99"]
        if p99_off <= 0.0:
            continue
        ratio = p99_on / p99_off
        if ratio < best_ratio:
            best_ratio, baseline_p99, sampled_p99 = ratio, p99_off, p99_on
        if best_ratio < MAX_OBS_OVERHEAD:
            break
    print(
        f"  overhead: p99 {baseline_p99:.1f} ms off -> {sampled_p99:.1f} ms "
        f"at rate 0.01 (best ratio {best_ratio:.3f}, "
        f"guard < {MAX_OBS_OVERHEAD})"
    )
    assert best_ratio < MAX_OBS_OVERHEAD, (
        f"tracing at rate 0.01 inflated p99 latency {best_ratio:.3f}x on "
        f"every one of {attempts} attempts (guard {MAX_OBS_OVERHEAD}x)"
    )
    return {
        "requests": n_requests,
        "traced_responses": len(traced),
        "queue_service_split_exact": True,
        "exposition_families": len(families),
        "kernels_observed": sorted(snapshot["kernels"]),
        "tracing": snapshot["tracing"],
        "overhead_guard": {
            "sample_rate": 0.01,
            "attempts": attempts,
            "baseline_p99_ms": baseline_p99,
            "sampled_p99_ms": sampled_p99,
            "best_ratio": best_ratio,
            "max_ratio": MAX_OBS_OVERHEAD,
        },
    }


def bench_faults(mapper, images, smoke: bool) -> dict:
    """Fault sweep: baseline SLO guard, then an injected-fault run.

    The baseline burst runs fault-free and asserts **zero SLO
    violations** (a violation is a request that was shed, failed, or
    never resolved) -- the CI guard that the robustness machinery is
    inert when nothing is failing.  The faulted burst injects a replica
    crash, a straggler and a poisoned batch through a deterministic
    :class:`~repro.serve.FaultPlan` and asserts the supervision
    accounting: every submitted future resolves (result or typed error),
    the crash produced a restart + retry, and the poisoned batch
    produced typed failures -- never a hung client.
    """
    from repro.errors import InferenceError, ServiceOverloadError
    from repro.serve import (
        FaultPlan,
        PoisonedBatch,
        ReplicaCrash,
        SlowReplica,
    )

    n_requests = 32 if smoke else 96

    def _drive(config: ServiceConfig) -> tuple[dict, dict]:
        answered = failed = shed = 0
        with ScInferenceService(mapper, config) as service:
            futures = []
            for i in range(n_requests):
                try:
                    futures.append(service.submit(images[i % images.shape[0]]))
                except ServiceOverloadError:
                    shed += 1
                # Pace the burst so the scheduler forms several small
                # batches instead of two max-size ones -- the fault plan
                # targets batch sequence numbers, so enough execution
                # attempts must happen for every injector to fire.
                if i % 4 == 3:
                    time.sleep(0.005)
            for future in futures:
                try:
                    future.result(timeout=120)
                    answered += 1
                except InferenceError:
                    failed += 1
            snapshot = service.metrics.snapshot()
        accounting = {
            "requests": n_requests,
            "answered": answered,
            "failed": failed,
            "shed_at_submit": shed,
            "unresolved": n_requests - answered - failed - shed,
        }
        return accounting, snapshot

    baseline_accounting, baseline_snapshot = _drive(_service_config())
    baseline_violations = (
        baseline_accounting["failed"]
        + baseline_accounting["shed_at_submit"]
        + baseline_accounting["unresolved"]
    )
    print(
        f"  baseline: {baseline_accounting['answered']}/{n_requests} "
        f"answered, {baseline_violations} SLO violations"
    )
    assert baseline_violations == 0, (
        f"fault-free baseline violated its SLO {baseline_violations} "
        f"time(s): {baseline_accounting}"
    )

    plan = FaultPlan(
        ReplicaCrash(at_batch=0),
        SlowReplica(at_batch=2, delay_s=0.02),
        PoisonedBatch(at_batch=4),
        seed=0,
    )
    fault_accounting, fault_snapshot = _drive(_service_config(fault_plan=plan))
    counters = fault_snapshot["faults"]
    print(
        f"  faulted:  {fault_accounting['answered']}/{n_requests} answered, "
        f"{fault_accounting['failed']} typed failures, "
        f"{counters['restarts']} restart(s), {counters['retries']} retry(ies)"
    )
    assert fault_accounting["unresolved"] == 0, (
        f"futures left unresolved under injected faults: {fault_accounting}"
    )
    assert counters["restarts"] >= 1, "injected crash produced no restart"
    assert counters["retries"] >= 1, "injected crash produced no retry"
    assert fault_accounting["failed"] >= 1, (
        "injected poisoned batch produced no typed failure"
    )
    return {
        "requests_per_run": n_requests,
        "baseline": {
            **baseline_accounting,
            "slo_violations": baseline_violations,
            "latency_ms": baseline_snapshot["latency_ms"],
        },
        "faulted": {
            **fault_accounting,
            "injected": plan.fired,
            "counters": counters,
            "latency_ms": fault_snapshot["latency_ms"],
        },
    }


def bench_fleet(artifact: Path, images, smoke: bool) -> dict:
    """Fleet sweep: worker scaling, rolling-restart tail, kill-burst SLO.

    Three sections against :class:`~repro.serve.FleetRouter` fleets
    rehydrated from the benchmark's model artifact:

    * **scaling** -- the same burst against 1, 2 (and 4) worker
      processes, recording throughput and the per-worker request split
      (a point with more workers than the host has CPUs is ``skipped``);
    * **rolling restart** -- a steady load while every worker is drained
      and replaced in turn, recording client-observed p99 against the
      undisturbed baseline and asserting *zero* dropped or failed
      requests (the zero-downtime redeploy story);
    * **kill burst** -- a burst with an injected :class:`WorkerKill`,
      asserting the SLO accounting: every future resolves, the death is
      restarted within budget, stranded requests are retried, and the
      violation count equals the typed failures (no silent losses).
    """
    import threading

    from repro.config import FleetConfig
    from repro.errors import FleetError, InferenceError, ServiceOverloadError
    from repro.serve import FaultPlan, FleetRouter, WorkerKill

    n_requests = 48 if smoke else 160
    worker_counts = (1, 2) if smoke else (1, 2, 4)

    def _fleet(workers: int, **overrides) -> FleetConfig:
        return FleetConfig(
            num_workers=workers,
            service=_service_config(num_workers=1),
            heartbeat_interval_ms=100.0,
            heartbeat_misses=15,
            restart_backoff_ms=20.0,
            **overrides,
        )

    def _burst(router, n: int, pace_s: float = 0.0) -> dict:
        """Submit ``n`` requests, resolve all, return SLO accounting."""
        done: list[float] = []
        latencies: list[float] = []
        lock = threading.Lock()
        futures = []
        shed = failed = 0
        started = time.perf_counter()
        for i in range(n):
            t0 = time.perf_counter()

            def _record(future, t0=t0):
                t1 = time.perf_counter()
                with lock:
                    done.append(t1)
                    latencies.append((t1 - t0) * 1e3)

            try:
                future = router.submit(images[i % images.shape[0]])
            except (ServiceOverloadError, FleetError):
                shed += 1
                continue
            future.add_done_callback(_record)
            futures.append(future)
            if pace_s:
                time.sleep(pace_s)
        answered = 0
        for future in futures:
            try:
                future.result(timeout=300)
                answered += 1
            except (InferenceError, FleetError, ServiceOverloadError):
                failed += 1
        elapsed = (max(done) if done else time.perf_counter()) - started
        lat = np.asarray(latencies) if latencies else np.zeros(1)
        return {
            "requests": n,
            "answered": answered,
            "failed": failed,
            "shed_at_submit": shed,
            "unresolved": n - answered - failed - shed,
            "throughput_rps": round(answered / elapsed, 1) if elapsed else 0.0,
            "p50_ms": round(float(np.percentile(lat, 50)), 2),
            "p99_ms": round(float(np.percentile(lat, 99)), 2),
        }

    # -- scaling ---------------------------------------------------------------
    cpus = os.cpu_count() or 1
    scaling = []
    for workers in worker_counts:
        if workers > cpus:
            # More worker processes than cores would time contention.
            skipped = f"workers {workers} > cpu_count {cpus}"
            scaling.append({"workers": workers, "skipped": skipped})
            print(f"  {workers} worker(s): skipped ({skipped})")
            continue
        with FleetRouter(artifact, _fleet(workers)) as router:
            accounting = _burst(router, n_requests)
            snapshot = router.snapshot()
        per_worker = {
            str(slot): (snap or {}).get("requests")
            for slot, snap in snapshot["workers"].items()
        }
        assert accounting["unresolved"] == 0, accounting
        assert accounting["failed"] == 0, accounting
        scaling.append(
            {
                "workers": workers,
                **accounting,
                "per_worker_requests": per_worker,
            }
        )
        print(
            f"  {workers} worker(s): {accounting['throughput_rps']} req/s, "
            f"p99 {accounting['p99_ms']} ms"
        )

    # -- rolling restart -------------------------------------------------------
    pace_s = 0.01 if smoke else 0.005
    with FleetRouter(artifact, _fleet(2)) as router:
        baseline = _burst(router, n_requests, pace_s=pace_s)
        restarter = threading.Thread(target=router.rolling_restart)
        restarter.start()
        rolling = _burst(router, n_requests, pace_s=pace_s)
        restarter.join()
        replacements = router.metrics.snapshot()["replacements"]
    assert baseline["unresolved"] == 0 and baseline["failed"] == 0, baseline
    assert rolling["unresolved"] == 0, rolling
    assert rolling["failed"] == 0, (
        f"rolling restart dropped requests: {rolling}"
    )
    assert replacements == 2, f"expected 2 replacements, got {replacements}"
    print(
        f"  rolling restart: p99 {baseline['p99_ms']} -> "
        f"{rolling['p99_ms']} ms, 0 drops across {replacements} replacements"
    )

    # -- kill burst ------------------------------------------------------------
    plan = FaultPlan(WorkerKill(worker=0, at_batch=4, times=1), seed=0)
    with FleetRouter(
        artifact,
        _fleet(2, fault_plan=plan, max_worker_restarts=2, max_request_retries=4),
    ) as router:
        killed = _burst(router, n_requests)
        fleet_counters = router.metrics.snapshot()
    violations = killed["failed"] + killed["shed_at_submit"] + killed["unresolved"]
    assert killed["unresolved"] == 0, killed
    assert plan.fired.get("worker_kill") == 1, plan.fired
    assert fleet_counters["worker_deaths"] == 1, fleet_counters
    assert fleet_counters["restarts"] == 1, fleet_counters
    assert fleet_counters["retries"] >= 1, fleet_counters
    print(
        f"  kill burst: {killed['answered']}/{n_requests} answered, "
        f"{violations} SLO violations, {fleet_counters['retries']} "
        f"retry(ies) after 1 injected kill"
    )

    return {
        "requests_per_run": n_requests,
        "scaling": scaling,
        "rolling_restart": {
            "baseline": baseline,
            "during_restart": rolling,
            "replacements": replacements,
        },
        "kill_burst": {
            **killed,
            "slo_violations": violations,
            "injected": plan.fired,
            "counters": {
                key: fleet_counters[key]
                for key in ("worker_deaths", "restarts", "retries", "hedges")
            },
        },
    }


def bench_http(artifact: Path, images, smoke: bool) -> dict:
    """HTTP overhead guard: what the front end adds to one request.

    A :class:`~repro.serve.ScHttpServer` over a
    :class:`~repro.serve.ModelRegistry` serves the artifact from the
    2-replica service with the cache off.  One keep-alive client sends
    unary requests at the steady :data:`HTTP_RATE`, well below capacity.
    A request's overhead is its client-observed latency minus the
    ``latency_ms`` the server reports for it (the service's own
    submit-to-answer time): socket, parsing, the executor hand-off and
    serialization remain, while host drift, which slows both terms
    alike, cancels.  Every request must answer 200 and the median
    overhead must stay within :data:`MAX_HTTP_OVERHEAD_MS`; p90 and p99
    are recorded, but at this sample size they are too noisy to gate.
    """
    import http.client
    from contextlib import closing

    from repro.config import HttpConfig
    from repro.serve import ModelRegistry, ScHttpServer

    n_requests = 96 if smoke else 192
    path = "/v1/models/bench/predict"
    headers = {"Content-Type": "application/json"}
    bodies = [
        json.dumps({"images": [image.tolist()]})
        for image in images[:n_requests]
    ]

    def _post(conn, i: int) -> dict:
        conn.request("POST", path, body=bodies[i % len(bodies)], headers=headers)
        response = conn.getresponse()
        raw = response.read()
        assert response.status == 200, (
            f"request {i} answered {response.status}: {raw[:200]!r}"
        )
        return json.loads(raw)

    registry = ModelRegistry(models={"bench": artifact}, service=_service_config())
    overheads = []
    try:
        with ScHttpServer(registry, HttpConfig()) as server, closing(
            http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
        ) as conn:
            _post(conn, 0)  # loads the model's pool and draws its stream plane
            start = time.perf_counter()
            for i in range(n_requests):
                delay = start + i / HTTP_RATE - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                served_ms = _post(conn, i)["latency_ms"]
                overheads.append((time.perf_counter() - sent) * 1e3 - served_ms)
    finally:
        registry.close()
    p50, p90, p99 = (
        round(float(q), 3) for q in np.percentile(overheads, (50, 90, 99))
    )
    print(
        f"  overhead: {n_requests} requests at {HTTP_RATE:.0f} req/s, client "
        f"minus server latency p50 {p50:.2f} ms, p90 {p90:.2f} ms, p99 "
        f"{p99:.2f} ms (guard p50 <= {MAX_HTTP_OVERHEAD_MS} ms)"
    )
    assert p50 <= MAX_HTTP_OVERHEAD_MS, (
        f"HTTP front end added a median {p50:.2f} ms per request "
        f"(guard {MAX_HTTP_OVERHEAD_MS} ms)"
    )
    return {
        "endpoint": path,
        "offered_rps": HTTP_RATE,
        "requests": n_requests,
        "overhead_ms": {"p50": p50, "p90": p90, "p99": p99},
        "max_p50_ms": MAX_HTTP_OVERHEAD_MS,
    }


def run(
    smoke: bool,
    output: Path,
    artifact: Path | None = None,
    faults: bool = False,
    fleet: bool = False,
    http: bool = False,
) -> dict:
    if artifact is None:
        artifact = output.parent / (output.stem + "_model")
    model, images, labels, artifact_reused = _load_served_model(smoke, artifact)
    mapper = model.mapper()
    print("early exit (progressive precision):")
    early = bench_early_exit(mapper, images, labels)
    print("packed-prefix bit-exactness:")
    packed = bench_packed_prefix(mapper, images, labels, 2 if smoke else 8)
    print(f"result cache ({BACKEND}):")
    cache = bench_cache(mapper, images, n_unique=16, repeats=3)
    print(f"observability ({BACKEND}: tracing + exposition + overhead guard):")
    observability = bench_obs(mapper, images, smoke)
    report = {
        "smoke": smoke,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cpu_count": os.cpu_count(),
        "backend": BACKEND,
        "stream_length": STREAM_LENGTH,
        "artifact": str(artifact),
        "artifact_reused": artifact_reused,
        "early_exit": early,
        "packed_prefix": packed,
        "cache": cache,
        "observability": observability,
    }
    if faults:
        print(f"fault sweep ({BACKEND}: SLO-violation accounting):")
        report["fault_sweep"] = bench_faults(mapper, images, smoke)
    if fleet:
        print(f"fleet sweep ({BACKEND}: scaling, rolling restart, kill burst):")
        report["fleet"] = bench_fleet(artifact, images, smoke)
    if http:
        print(f"http front end ({BACKEND}: per-request overhead guard):")
        report["http"] = bench_http(artifact, images, smoke)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {output}")
    print(
        f"  headline: {early['cycle_reduction']:.2f}x mean stream-cycle "
        f"reduction at N={STREAM_LENGTH} on the statistical model, accuracy "
        f"{early['accuracy_early']:.4f} unchanged; "
        f"{packed['cycle_reduction']:.2f}x on bit-exact prefixes"
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small training budget and request bursts (CI smoke run)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        dest="smoke",
        help="alias for --smoke",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run the fault sweep: a fault-free baseline asserting zero "
        "SLO violations, then an injected crash/straggler/poison burst "
        "with supervision accounting",
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="run the multi-process fleet sweep: throughput scaling vs "
        "worker count (points above the CPU count are skipped), zero drops "
        "during a rolling restart, and SLO accounting under an injected "
        "WorkerKill burst",
    )
    parser.add_argument(
        "--http",
        action="store_true",
        help="run the HTTP overhead guard: steady unary requests over the "
        "wire, bounding the median of client latency minus the "
        "server-reported latency_ms",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_serve.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--artifact",
        type=Path,
        default=None,
        help="model artifact directory (default: <output>_model next to the "
        "report; trained and saved on first run, reused afterwards)",
    )
    args = parser.parse_args(argv)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.touch()
    run(
        args.smoke,
        args.output,
        args.artifact,
        faults=args.faults,
        fleet=args.fleet,
        http=args.http,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
