"""Serving configuration and typed request options.

The configuration objects gather the knobs of the serving stack -- the
micro-batching service (:class:`ServiceConfig`), the worker fleet
(:class:`FleetConfig`) and the HTTP front end (:class:`HttpConfig`) --
and the per-request inference options (:class:`PredictOptions`).  This
module stays import-light (errors only) so every layer -- backends,
serving, the public API -- can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "ServiceConfig",
    "FleetConfig",
    "HttpConfig",
    "PredictOptions",
    "ResolvedPredictOptions",
    "resolve_checkpoints",
]

#: Stream-length checkpoint fractions evaluated by the progressive
#: early-exit policy (see :mod:`repro.serve`): ``N/8, N/4, N/2, N``.
DEFAULT_CHECKPOINT_FRACTIONS = (0.125, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the micro-batching inference service (:mod:`repro.serve`).

    Attributes:
        backend: registry name of the execution backend every worker
            replica runs (default ``"bit-exact-packed"``, whose answers do
            not depend on which requests were micro-batched together).
        max_batch_size: a free worker takes the oldest queued request at
            once, then the requests already queued behind it until its
            merged batch holds this many images (the last one taken may
            overshoot it); it never waits for more to arrive.
        num_workers: worker threads, each owning one backend replica.
        cache_capacity: entries held by the LRU result cache (keyed on
            image digest, backend name and stream length); ``0`` disables
            caching.
        early_exit: evaluate requests at stream-length checkpoints
            (``DEFAULT_CHECKPOINT_FRACTIONS`` of ``N``, unless a request
            names its own) and answer early once the prediction
            stabilises (only effective on backends whose ``progressive``
            capability flag is set).
        margin: minimum gap between the top-1 and top-2 class scores for
            an early exit to fire.
        stable_checkpoints: number of consecutive checkpoints whose
            predicted class must agree (ending at the exit checkpoint).
        max_queue_depth: bounded admission -- maximum number of admitted,
            unfinished requests; a submit beyond it raises
            :class:`~repro.errors.ServiceOverloadError` in the caller
            (``None`` = unbounded, the pre-fault-tolerance behaviour).
        shed_unmeetable_deadlines: reject (rather than queue) requests
            whose ``deadline_ms`` cannot even afford the first checkpoint
            under the service's EWMA cycles/sec estimate.
        max_replica_restarts: per-replica budget of automatic restarts
            after unexpected backend exceptions (``0`` disables
            supervision restarts).
        restart_backoff_ms: base of the exponential backoff slept before
            restart ``k`` of a replica (``base * 2**k``, capped at 1 s).
        max_batch_retries: times a failed merged-batch bucket is retried
            (on the restarted replica) before its requests' futures fail
            with a typed :class:`~repro.errors.InferenceError`.
        degrade_queue_depth: overload controller trigger -- when more
            than this many admitted requests are unfinished, progressive
            replicas cap exits at an earlier checkpoint
            (``None`` = never degrade).
        degraded_max_fraction: under degradation, exits are capped at
            the last checkpoint within this fraction of the stream length
            (default ``0.5``: answers come from the ``N/8 .. N/2``
            prefixes).  Degraded results are never stored in the result
            cache.
        fault_plan: optional fault-injection hook
            (:class:`repro.serve.faults.FaultPlan`, or any object with a
            compatible ``before_batch(worker, replica)`` method) invoked
            before every bucket execution attempt -- the chaos-testing
            seam; ``None`` in production.
        trace_sample_rate: fraction of admitted requests that record a
            full span trace (:class:`repro.obs.Tracer`); ``0.0``
            (default) disables tracing entirely -- untraced requests pay
            a single float comparison -- and ``1.0`` traces every
            request.
        trace_capacity: completed traces retained in the tracer's ring
            buffer (oldest evicted first).
        event_log_path: when set, a JSONL structured event log
            (:class:`repro.obs.JsonlEventLog`) receives this service's
            sampled traces (and the failures of sampled requests) and
            every one of its fault/overload events (sheds,
            degradations, failed batches, replica restarts), whatever
            the ``repro`` logger's level.  Records of other modules
            and other services (registry reloads, native-tier
            fallbacks) are not written to it.
    """

    backend: str = "bit-exact-packed"
    max_batch_size: int = 32
    num_workers: int = 2
    cache_capacity: int = 1024
    early_exit: bool = True
    margin: float = 0.1
    stable_checkpoints: int = 2
    max_queue_depth: int | None = None
    shed_unmeetable_deadlines: bool = False
    max_replica_restarts: int = 3
    restart_backoff_ms: float = 10.0
    max_batch_retries: int = 1
    degrade_queue_depth: int | None = None
    degraded_max_fraction: float = 0.5
    fault_plan: object | None = None
    trace_sample_rate: float = 0.0
    trace_capacity: int = 256
    event_log_path: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str) or not self.backend:
            raise ConfigurationError(
                f"backend must be a non-empty backend name, got "
                f"{self.backend!r}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.cache_capacity < 0:
            raise ConfigurationError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )
        if self.margin < 0:
            raise ConfigurationError(f"margin must be >= 0, got {self.margin}")
        if self.stable_checkpoints < 1:
            raise ConfigurationError(
                f"stable_checkpoints must be >= 1, got {self.stable_checkpoints}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_replica_restarts < 0:
            raise ConfigurationError(
                f"max_replica_restarts must be >= 0, got "
                f"{self.max_replica_restarts}"
            )
        if self.restart_backoff_ms < 0:
            raise ConfigurationError(
                f"restart_backoff_ms must be >= 0, got "
                f"{self.restart_backoff_ms}"
            )
        if self.max_batch_retries < 0:
            raise ConfigurationError(
                f"max_batch_retries must be >= 0, got {self.max_batch_retries}"
            )
        if self.degrade_queue_depth is not None and self.degrade_queue_depth < 1:
            raise ConfigurationError(
                f"degrade_queue_depth must be >= 1, got "
                f"{self.degrade_queue_depth}"
            )
        if not 0.0 < self.degraded_max_fraction <= 1.0:
            raise ConfigurationError(
                f"degraded_max_fraction must lie in (0, 1], got "
                f"{self.degraded_max_fraction}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigurationError(
                f"trace_sample_rate must lie in [0, 1], got "
                f"{self.trace_sample_rate}"
            )
        if self.trace_capacity < 1:
            raise ConfigurationError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )
        # Duck-typed so this module stays import-light (the concrete
        # FaultPlan lives above the config layer, in repro.serve.faults).
        if self.fault_plan is not None and not callable(
            getattr(self.fault_plan, "before_batch", None)
        ):
            raise ConfigurationError(
                "fault_plan must expose a before_batch(worker, replica) "
                f"method (see repro.serve.faults.FaultPlan), got "
                f"{self.fault_plan!r}"
            )


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the multi-process worker fleet (:mod:`repro.serve.fleet`).

    A :class:`~repro.serve.fleet.FleetRouter` spawns ``num_workers``
    supervised worker *processes*, each hosting its own in-process
    :class:`~repro.serve.ScInferenceService` (configured by
    :attr:`service`) rehydrated bit-identically from a shared model
    artifact.  The router owns the process-level robustness contract:
    heartbeat health checks, crash/hang detection with restart budgets,
    request retry and hedging, bounded admission, and graceful drain.
    It keeps at most two batches' worth (``2 * service.max_batch_size``)
    of requests outstanding on one worker; the rest wait in its queue
    and are handed on by whichever thread queues a request or frees a
    slot.

    Attributes:
        num_workers: worker processes the router spawns and supervises.
        service: the :class:`ServiceConfig` every worker process runs its
            in-process service with (``None`` = service defaults with the
            bit-exact packed backend).  Its ``fault_plan`` must be
            ``None`` -- in-process injection does not cross the process
            boundary; use the fleet-level :attr:`fault_plan` instead.
        heartbeat_interval_ms: period of the router's health-check pings.
        heartbeat_misses: consecutive unanswered pings after which a
            worker is declared hung, killed and restarted.
        worker_start_timeout_s: seconds a freshly spawned worker may take
            to load the artifact and report ready before the router gives
            up on it (counts against the slot's restart budget).
        max_worker_restarts: per-slot budget of automatic restarts after
            a crash, hang or failed start (the process-granularity analogue
            of ``ServiceConfig.max_replica_restarts``).
        restart_backoff_ms: base of the exponential backoff slept before
            restart ``k`` of a slot (``base * 2**k``, capped at 5 s).
        max_request_retries: times a request stranded by a dying worker is
            re-dispatched to another worker before its future fails with a
            typed :class:`~repro.errors.FleetError`; expired deadlines are
            never retried (deadline-aware failover).
        hedge_after_ms: optional tail-latency hedging -- a request still
            unanswered after this many milliseconds is speculatively
            dispatched to a second healthy worker; the first response
            wins (``None`` disables hedging).  Bit-exact workers make the
            duplicate answer harmless by construction.
        max_inflight: router-level bounded admission -- a submit beyond
            this many unresolved requests raises
            :class:`~repro.errors.ServiceOverloadError` in the caller
            (``None`` = unbounded).
        drain_timeout_s: seconds a graceful drain waits for in-flight
            requests (and worker exits) before escalating to kill.
        fault_plan: optional process-level fault injection hook (an object
            with a ``before_dispatch(worker, handle)`` method, e.g.
            :class:`repro.serve.faults.FaultPlan` carrying
            :class:`~repro.serve.faults.WorkerKill` /
            :class:`~repro.serve.faults.WorkerHang` /
            :class:`~repro.serve.faults.SlowWorker` injectors) consulted
            before every request dispatch, on the dispatching thread
            under the router lock, so it must not block; ``None`` in
            production.
    """

    num_workers: int = 2
    service: "ServiceConfig | None" = None
    heartbeat_interval_ms: float = 100.0
    heartbeat_misses: int = 5
    worker_start_timeout_s: float = 120.0
    max_worker_restarts: int = 3
    restart_backoff_ms: float = 50.0
    max_request_retries: int = 2
    hedge_after_ms: float | None = None
    max_inflight: int | None = None
    drain_timeout_s: float = 30.0
    fault_plan: object | None = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.service is not None:
            if not isinstance(self.service, ServiceConfig):
                raise ConfigurationError(
                    f"service must be a ServiceConfig, got {self.service!r}"
                )
            if self.service.fault_plan is not None:
                raise ConfigurationError(
                    "service.fault_plan cannot cross the process boundary; "
                    "put process-level injectors on FleetConfig.fault_plan"
                )
        if self.heartbeat_interval_ms <= 0:
            raise ConfigurationError(
                f"heartbeat_interval_ms must be > 0, got "
                f"{self.heartbeat_interval_ms}"
            )
        if self.heartbeat_misses < 1:
            raise ConfigurationError(
                f"heartbeat_misses must be >= 1, got {self.heartbeat_misses}"
            )
        if self.worker_start_timeout_s <= 0:
            raise ConfigurationError(
                f"worker_start_timeout_s must be > 0, got "
                f"{self.worker_start_timeout_s}"
            )
        if self.max_worker_restarts < 0:
            raise ConfigurationError(
                f"max_worker_restarts must be >= 0, got "
                f"{self.max_worker_restarts}"
            )
        if self.restart_backoff_ms < 0:
            raise ConfigurationError(
                f"restart_backoff_ms must be >= 0, got "
                f"{self.restart_backoff_ms}"
            )
        if self.max_request_retries < 0:
            raise ConfigurationError(
                f"max_request_retries must be >= 0, got "
                f"{self.max_request_retries}"
            )
        if self.hedge_after_ms is not None and not self.hedge_after_ms > 0:
            raise ConfigurationError(
                f"hedge_after_ms must be > 0, got {self.hedge_after_ms}"
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be > 0, got {self.drain_timeout_s}"
            )
        if self.fault_plan is not None and not callable(
            getattr(self.fault_plan, "before_dispatch", None)
        ):
            raise ConfigurationError(
                "fault_plan must expose a before_dispatch(worker, handle) "
                f"method (see repro.serve.faults.FaultPlan), got "
                f"{self.fault_plan!r}"
            )

    @property
    def worker_service(self) -> ServiceConfig:
        """The worker-process service config (defaults resolved)."""
        if self.service is not None:
            return self.service
        return ServiceConfig(num_workers=1)


@dataclass(frozen=True)
class HttpConfig:
    """Knobs of the HTTP front end (:mod:`repro.serve.http`), a threaded
    ``http.server``.

    Attributes:
        host: interface the listener binds (default loopback).
        port: TCP port; ``0`` binds an ephemeral port (the bound port is
            published on :attr:`repro.serve.http.ScHttpServer.port` after
            start -- what the tests and benchmarks use).
        max_body_bytes: largest accepted request body; a larger
            ``Content-Length`` is answered with HTTP 413 and its body is
            never kept (one up to 8x this size is read and discarded in
            64 KiB pieces first, so the connection closes cleanly).
        request_timeout_s: server-side cap on how long a unary request
            may wait for its service future when the request carries no
            ``deadline_ms`` of its own.
        deadline_grace_ms: extra wall-clock granted on top of a request's
            ``deadline_ms`` before the wire layer gives up and answers
            HTTP 504 -- the service normally answers expired deadlines
            *itself* (capped at the first checkpoint), so this only fires
            when the future is truly stuck.
        drain_timeout_s: graceful-drain budget: seconds
            :meth:`~repro.serve.http.ScHttpServer.close` waits for open
            connections (streams included) to finish before cutting them
            off.
        reload_interval_s: when set, a server thread polls
            :meth:`~repro.serve.registry.ModelRegistry.scan` at this
            period so manifest changes hot-reload without an operator
            call (``None`` disables polling; ``scan()`` can still be
            invoked directly).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_body_bytes: int = 8 * 1024 * 1024
    request_timeout_s: float = 300.0
    deadline_grace_ms: float = 1000.0
    drain_timeout_s: float = 30.0
    reload_interval_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ConfigurationError(
                f"host must be a non-empty string, got {self.host!r}"
            )
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"port must lie in [0, 65535], got {self.port}"
            )
        if self.max_body_bytes < 1:
            raise ConfigurationError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if not self.request_timeout_s > 0:
            raise ConfigurationError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )
        if self.deadline_grace_ms < 0:
            raise ConfigurationError(
                f"deadline_grace_ms must be >= 0, got {self.deadline_grace_ms}"
            )
        if not self.drain_timeout_s > 0:
            raise ConfigurationError(
                f"drain_timeout_s must be > 0, got {self.drain_timeout_s}"
            )
        if self.reload_interval_s is not None and not self.reload_interval_s > 0:
            raise ConfigurationError(
                f"reload_interval_s must be > 0, got {self.reload_interval_s}"
            )


def resolve_checkpoints(
    stream_length: int, fractions=DEFAULT_CHECKPOINT_FRACTIONS
) -> tuple[int, ...]:
    """Concrete checkpoint schedule for a stream length.

    Fractions are rounded to whole cycles, clamped to ``[1, N]``,
    deduplicated, and a final full-length checkpoint is appended when the
    schedule does not already end at ``N`` (the early-exit fallback must
    always be the exact full-stream evaluation).

    Args:
        stream_length: stochastic stream length ``N``.
        fractions: increasing fractions of ``N`` in ``(0, 1]``.

    Returns:
        Strictly increasing checkpoint cycle counts ending at ``N``.
    """
    if stream_length <= 0:
        raise ConfigurationError(
            f"stream_length must be positive, got {stream_length}"
        )
    if not fractions:
        raise ConfigurationError("at least one checkpoint fraction is required")
    points: list[int] = []
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"checkpoint fractions must lie in (0, 1], got {fraction}"
            )
        p = min(stream_length, max(1, int(round(fraction * stream_length))))
        if not points or p > points[-1]:
            points.append(p)
    if points[-1] != stream_length:
        points.append(stream_length)
    return tuple(points)


@dataclass(frozen=True)
class PredictOptions:
    """Typed per-request inference options.

    One validated bundle carried from the public API (`repro.api`) through
    the execution backends and the serving layer, replacing the ad-hoc
    keyword threading that used to stop at the service boundary.  Every
    field defaults to ``None`` = "use the model / service default", so
    ``PredictOptions()`` is always a no-op.

    Attributes:
        stream_length: evaluate the request at this stream length instead
            of the model's full ``N`` (must be ``<= N``; prefixes of the
            packed output streams make this exact for progressive
            bit-exact backends).
        checkpoints: explicit stream-length checkpoint schedule (strictly
            increasing cycles); the effective stream length is appended
            when the schedule stops short of it.
        early_exit: override the service's early-exit flag for this
            request.
        deadline_ms: total latency budget of the request in milliseconds.
            The serving layer converts the remaining budget at evaluation
            time into a cap on the exit checkpoint (an expired deadline
            exits at the *first* checkpoint), trading precision for
            punctuality per request.  Results evaluated under a deadline
            are never stored in the result cache.
        workers: shard the batch across this many threads, one backend
            replica per shard; honoured by
            :meth:`repro.api.Session.predict`, which rejects it on a
            backend that is not ``batch_invariant``.  The serving layers
            scale by replicas and worker processes instead, so
            :class:`~repro.serve.ScInferenceService` ignores it.

    Raises:
        ConfigurationError: on any out-of-domain field (non-positive
            stream length or deadline, unsorted checkpoints, ...);
            validation happens once, at construction.
    """

    stream_length: int | None = None
    checkpoints: tuple[int, ...] | None = None
    early_exit: bool | None = None
    deadline_ms: float | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.stream_length is not None and self.stream_length < 1:
            raise ConfigurationError(
                f"stream_length must be >= 1, got {self.stream_length}"
            )
        if self.checkpoints is not None:
            points = tuple(int(p) for p in self.checkpoints)
            if not points:
                raise ConfigurationError(
                    "checkpoints must name at least one cycle count"
                )
            if any(p < 1 for p in points):
                raise ConfigurationError(
                    f"checkpoints must be >= 1, got {points}"
                )
            if any(b <= a for a, b in zip(points, points[1:])):
                raise ConfigurationError(
                    f"checkpoints must be strictly increasing, got {points}"
                )
            object.__setattr__(self, "checkpoints", points)
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise ConfigurationError(
                f"deadline_ms must be > 0, got {self.deadline_ms}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )

    def resolve(
        self, stream_length: int, early_exit: bool = False
    ) -> "ResolvedPredictOptions":
        """Resolve against a model's stream length and serving defaults.

        A request that names no checkpoints is scored at the
        ``DEFAULT_CHECKPOINT_FRACTIONS`` of its effective stream length.

        Args:
            stream_length: the model's full stream length ``N``.
            early_exit: default early-exit behaviour when the request
                leaves :attr:`early_exit` unset.

        Returns:
            The concrete evaluation plan: an effective stream length
            ``<= N``, a checkpoint schedule ending at it, and the resolved
            early-exit / deadline fields.

        Raises:
            ConfigurationError: when the requested stream length exceeds
                ``N`` or the checkpoints overrun the effective stream
                length.
        """
        effective_n = self.stream_length or int(stream_length)
        if effective_n > stream_length:
            raise ConfigurationError(
                f"requested stream_length {effective_n} exceeds the model's "
                f"stream length {stream_length}"
            )
        if self.checkpoints is not None:
            points = self.checkpoints
            if points[-1] > effective_n:
                raise ConfigurationError(
                    f"checkpoints {points} overrun the effective stream "
                    f"length {effective_n}"
                )
            if points[-1] != effective_n:
                points = points + (effective_n,)
        else:
            points = resolve_checkpoints(effective_n)
        return ResolvedPredictOptions(
            stream_length=effective_n,
            checkpoints=points,
            early_exit=(
                early_exit if self.early_exit is None else bool(self.early_exit)
            ),
            deadline_ms=self.deadline_ms,
            explicit_schedule=(
                self.stream_length is not None or self.checkpoints is not None
            ),
        )


@dataclass(frozen=True)
class ResolvedPredictOptions:
    """A :class:`PredictOptions` resolved against one model / service.

    Attributes:
        stream_length: effective stream length of the request (``<= N``).
        checkpoints: strictly increasing schedule ending at
            :attr:`stream_length`.
        early_exit: whether the stability + margin policy may exit early.
        deadline_ms: request latency budget (``None`` = none).
        explicit_schedule: the request named its own stream length or
            checkpoints (and therefore *requires* a progressive backend
            rather than degrading to a full forward pass).
    """

    stream_length: int
    checkpoints: tuple[int, ...]
    early_exit: bool
    deadline_ms: float | None
    explicit_schedule: bool = False

    @property
    def cache_token(self) -> tuple:
        """The effective-options part of the serve result-cache key.

        Two requests whose tokens differ must never share a cache entry:
        the scores stored for one schedule (say an early exit at ``N/8``)
        are stale for a request demanding another -- the stale-hit hazard
        the options-aware cache key exists to close.
        """
        return (self.stream_length, self.checkpoints, self.early_exit)

    @property
    def cacheable(self) -> bool:
        """Deadline-budgeted results are wall-clock dependent: never cached."""
        return self.deadline_ms is None

