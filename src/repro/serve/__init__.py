"""Serving layer: micro-batched SC inference with progressive early exit.

The execution backends (:mod:`repro.backends`) answer one question --
*how fast can a merged batch run* -- and this package answers the next
one: *how do individual requests become merged batches, and how few
stream cycles can each request get away with*.  It contains:

* :class:`~repro.serve.service.ScInferenceService` -- the front door:
  futures-based request submission, a FIFO micro-batching scheduler
  (``max_batch_size`` / ``max_wait_ms``), and a worker pool of replicas
  of one registry backend.
* :mod:`~repro.serve.progressive` -- the progressive-precision engine:
  class scores evaluated at stream-length checkpoints
  (:meth:`~repro.backends.base.Backend.forward_partial`) with a
  stability + margin early-exit policy, exploiting SC's defining
  property that precision grows monotonically with stream length.
* :mod:`~repro.serve.cache` -- an LRU result cache keyed on
  ``(image digest, backend name, stream length)``.
* :mod:`~repro.serve.metrics` -- latency percentiles, throughput,
  micro-batch sizes, cache hit rate, mean exit checkpoint, and the
  fault-tolerance counters (sheds, retries, restarts, degradations).
* :mod:`~repro.serve.faults` -- deterministic, seedable fault injection
  (:class:`~repro.serve.faults.FaultPlan`) wired in via
  :attr:`~repro.config.ServiceConfig.fault_plan`, so chaos tests of the
  supervision / admission / degradation paths are ordinary pytest tests.
* :mod:`~repro.serve.registry` -- the serving catalog:
  :class:`~repro.serve.registry.ModelRegistry` maps model names to
  versioned artifacts and lazily builds one replica pool per model
  (service or fleet), with atomic hot-reload on manifest change --
  in-flight requests drain on the old pool, new requests route to the
  new one.
* :mod:`~repro.serve.http` -- the network front end:
  :class:`~repro.serve.http.ScHttpServer`, a stdlib-asyncio HTTP/1.1
  JSON server with unary and SSE progressive-streaming prediction
  routes, Prometheus ``/metrics``, health/readiness probes, typed
  4xx/5xx error mapping and graceful drain through open connections.
* :mod:`~repro.serve.fleet` -- horizontal scale-out:
  :class:`~repro.serve.fleet.FleetRouter` supervises a fleet of worker
  *processes* (:mod:`~repro.serve.fleet_worker`, one embedded service
  each, rehydrated bit-identically from a shared artifact) over the
  :mod:`~repro.serve.rpc` pipe protocol, with heartbeat health checks,
  crash/hang restart within budgets, deadline-aware request retry,
  tail-latency hedging, bounded admission and graceful/rolling drains.

Observability rides on :mod:`repro.obs`: with ``trace_sample_rate`` set,
sampled requests carry a :class:`~repro.obs.TraceSummary` on their
:class:`~repro.serve.service.InferenceResponse`,
``ScInferenceService.snapshot()`` extends the metrics with kernel-tier
counters, workspace arena stats and tracer state, and ``event_log_path``
streams traces plus fault events to a JSONL log.

``perfbench/`` measures the stack's latency and throughput on the
bit-exact path; ``benchmarks/bench_serve.py`` records the early-exit
stream-cycle savings and checks the cache, tracing, fault, fleet and
per-request HTTP overhead on ``bit-exact-packed`` (``BENCH_serve.json``);
``examples/serve_demo.py`` is the minimal end-to-end walkthrough.
"""

from repro.config import FleetConfig, HttpConfig, ServiceConfig
from repro.errors import (
    FleetError,
    InferenceError,
    ModelNotFoundError,
    RemoteWorkerError,
    ServiceOverloadError,
)
from repro.serve.cache import CachedResult, LruResultCache, image_digest
from repro.serve.faults import (
    FaultPlan,
    InjectedCrashError,
    PoisonedBatch,
    ReplicaCrash,
    SlowReplica,
    SlowWorker,
    WorkerHang,
    WorkerKill,
)
from repro.serve.fleet import FleetMetrics, FleetRouter
from repro.serve.http import HttpError, ScHttpServer
from repro.serve.registry import ModelInfo, ModelRegistry, describe_artifact
from repro.obs import TraceSummary
from repro.serve.metrics import ServiceMetrics
from repro.serve.progressive import (
    ProgressiveResult,
    early_exit_from_scores,
    progressive_forward,
    resolve_checkpoints,
)
from repro.serve.service import InferenceResponse, ScInferenceService

__all__ = [
    "ServiceConfig",
    "ScInferenceService",
    "InferenceResponse",
    "ProgressiveResult",
    "progressive_forward",
    "early_exit_from_scores",
    "resolve_checkpoints",
    "LruResultCache",
    "CachedResult",
    "image_digest",
    "ServiceMetrics",
    "TraceSummary",
    "InferenceError",
    "ServiceOverloadError",
    "FaultPlan",
    "ReplicaCrash",
    "SlowReplica",
    "PoisonedBatch",
    "WorkerKill",
    "WorkerHang",
    "SlowWorker",
    "InjectedCrashError",
    "FleetConfig",
    "FleetRouter",
    "FleetMetrics",
    "FleetError",
    "RemoteWorkerError",
    "HttpConfig",
    "ScHttpServer",
    "HttpError",
    "ModelRegistry",
    "ModelInfo",
    "ModelNotFoundError",
    "describe_artifact",
]
