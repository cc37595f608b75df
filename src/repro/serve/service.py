"""Micro-batching SC inference service with progressive early exit.

:class:`ScInferenceService` is the request path in front of the execution
backends (:mod:`repro.backends`): clients submit single images or small
batches and receive futures; a pool of worker threads -- each owning one
replica of the configured backend -- serves the queue in a
work-conserving way: a free worker takes the oldest request at once,
together with whatever is already queued behind it (up to
``max_batch_size`` images), and runs that merged batch.  No request
waits for company: a lone request on an idle service runs as soon as it
is admitted, and requests that arrive while every replica is busy are
merged by the next replica to free up.  Per image the service consults
the LRU result cache first and, on progressive backends, answers through
the early-exit engine (:mod:`repro.serve.progressive`) so confidently
classified images stop streaming at an early checkpoint.  One pass per
bucket scores every checkpoint of the schedule, and the response carries
all of them, so a caller that streams checkpoints needs no second
request.

Requests carry typed per-request options
(:class:`~repro.config.PredictOptions`): a reduced stream length or an
explicit checkpoint schedule is read from stream prefixes, ``early_exit``
overrides the service default per request, and ``deadline_ms`` bounds
how long the request may wait in the queue: one still queued when its
deadline runs out is shed before any compute, and one taken in time gets
the same full answer as a request without a deadline.  Options are
validated at :meth:`~ScInferenceService.submit` -- malformed images or
schedules raise in the caller, never as a worker-side future error --
and the result-cache key incorporates the effective options, so requests
that differ only in schedule never share an entry.

Micro-batching is *transparent* for the bit-exact backends: every image's
streams are generated from draw tensors shared across the batch, so its
scores are bit-identical no matter which requests it was coalesced with
-- the property ``tests/test_serve.py`` pins down.  Merged batches may
mix requests with different effective options or image shapes; the
worker buckets them by evaluation plan and shape, which preserves that
transparency per bucket.

**Fault tolerance.**  A worker thread never dies with its batch: failures
are classified by exception type.  :class:`~repro.errors.InferenceError`
is *request-scoped* -- the affected futures fail with it, the replica is
presumed healthy, no retry.  Any other exception is *replica-scoped*:
the worker rebuilds its replica (exponential backoff, bounded
by ``max_replica_restarts``) and re-executes the bucket up to
``max_batch_retries`` times before failing the futures with a typed
:class:`~repro.errors.InferenceError` chaining the original cause.
Bounded admission (``max_queue_depth``) fast-rejects submits with
:class:`~repro.errors.ServiceOverloadError` instead of queueing without
bound, and a request whose deadline ran out in the queue resolves with
the same error (reason ``"deadline"``).  Every shed, failed batch and
replica restart is logged under ``repro.serve`` and written by the
service itself to its own event log (``event_log_path``), so it lands
there once whatever the logging configuration.  Deterministic fault
injection for all of this lives in :mod:`repro.serve.faults`.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass

import numpy as np

from repro.backends import create_backend
from repro.backends.base import Backend
from repro.config import PredictOptions, ResolvedPredictOptions, ServiceConfig
from repro.errors import (
    ConfigurationError,
    InferenceError,
    ServiceOverloadError,
)
from repro.nn.sc_layers import ScNetworkMapper
from repro.obs import (
    JsonlEventLog,
    Trace,
    Tracer,
    TraceSummary,
    merge_kernel_snapshots,
)
from repro.serve.cache import CachedResult, LruResultCache, image_digest
from repro.serve.metrics import ServiceMetrics
from repro.serve.progressive import (
    ProgressiveResult,
    progressive_forward,
    resolve_checkpoints,
)

__all__ = ["InferenceResponse", "ScInferenceService"]

_LOG = logging.getLogger("repro.serve")

#: Queue sentinel that shuts down one worker.
_SHUTDOWN = object()


@dataclass(frozen=True)
class InferenceResponse:
    """Answer to one service request.

    Attributes:
        scores: ``(batch, n_classes)`` class scores at each image's exit
            checkpoint.
        predictions: ``(batch,)`` predicted classes.
        exit_checkpoints: ``(batch,)`` stream cycles at which each
            image's scores were evaluated (cached images report the
            checkpoint of the original evaluation; the ``cached`` mask
            marks that *this* request spent no cycles on them).
        cached: ``(batch,)`` boolean mask of images served from the cache.
        stream_length: full stream length ``N`` of the service.
        latency_seconds: submit-to-response wall time.
        checkpoints: the checkpoint schedule that was evaluated (``(N,)``
            after a plain full-stream forward pass).
        checkpoint_scores: ``(n_checkpoints, batch, n_classes)`` scores at
            every checkpoint: the exact prefix planes of the one pass that
            scored each image (cached images included), or ``scores[None]``
            after a plain forward pass.  An image's planes past its exit
            checkpoint were computed but not chosen.
        trace: :class:`repro.obs.TraceSummary` of the request's lifecycle
            (queue/service split, per-stage and per-checkpoint timings,
            replica / batch / retry annotations) when the request was
            sampled by the service tracer; ``None`` otherwise.
    """

    scores: np.ndarray
    predictions: np.ndarray
    exit_checkpoints: np.ndarray
    cached: np.ndarray
    stream_length: int
    latency_seconds: float
    checkpoints: tuple[int, ...]
    checkpoint_scores: np.ndarray
    trace: TraceSummary | None = None


class _PendingRequest:
    """One submitted request: the uncached rows awaiting a worker."""

    __slots__ = (
        "future",
        "n_images",
        "compute_images",
        "compute_indices",
        "digests",
        "rows",
        "submitted_at",
        "resolved",
        "deadline_at",
        "counted",
        "trace",
        "exec_started_at",
        "batch_seq",
        "retries",
        "worker",
        "replica_name",
    )

    def __init__(
        self,
        images: np.ndarray,
        digests: list[str],
        rows: list[CachedResult | None],
        resolved: ResolvedPredictOptions,
    ) -> None:
        self.future: Future = Future()
        # Back-pointer for ScInferenceService.cancel(): given only the
        # future a caller holds, find the request to release its
        # admission slot.  (Cycle future <-> request; the GC copes.)
        self.future.sc_request = self
        self.n_images = images.shape[0]
        #: True while the request occupies an admission slot
        #: (``_inflight``); cleared exactly once on finish/fail/cancel.
        self.counted = False
        self.compute_indices = [i for i, row in enumerate(rows) if row is None]
        self.compute_images = images[self.compute_indices]
        self.digests = digests
        self.rows = rows
        self.submitted_at = time.perf_counter()
        self.resolved = resolved
        self.deadline_at = (
            None
            if resolved.deadline_ms is None
            else self.submitted_at + resolved.deadline_ms / 1e3
        )
        #: Live :class:`repro.obs.Trace` when this request was sampled.
        self.trace: Trace | None = None
        #: ``perf_counter`` mark of the request's *first* execution
        #: attempt -- the boundary splitting latency into queue time and
        #: service time; ``None`` for cache-only requests.
        self.exec_started_at: float | None = None
        self.batch_seq: int | None = None
        self.retries = 0
        self.worker: int | None = None
        self.replica_name: str | None = None

    @property
    def n_compute(self) -> int:
        return len(self.compute_indices)

    def response(self, **fields) -> InferenceResponse:
        """Assemble the response once every row is filled."""
        cached = np.ones(self.n_images, dtype=bool)
        cached[self.compute_indices] = False
        return InferenceResponse(
            scores=np.stack([row.scores for row in self.rows]),
            predictions=np.asarray([row.prediction for row in self.rows]),
            exit_checkpoints=np.asarray(
                [row.exit_checkpoint for row in self.rows]
            ),
            cached=cached,
            checkpoint_scores=np.stack(
                [row.checkpoint_scores for row in self.rows], axis=1
            ),
            **fields,
        )


class ScInferenceService:
    """Micro-batching front door over the execution backends.

    Args:
        mapper: the SC network mapper every backend replica executes
            (trained network, stream length, weight precision, seed).
        config: service knobs (:class:`repro.config.ServiceConfig`);
            ``None`` uses the defaults.

    Every worker's replica is built from ``config.backend`` and the
    mapper alone, and a crashed one is rebuilt the same way.  The
    service starts its worker threads immediately and is used either
    as a context manager or with an explicit :meth:`close`.
    """

    def __init__(
        self,
        mapper: ScNetworkMapper,
        config: ServiceConfig | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.mapper = mapper
        self._replicas = [
            create_backend(self.config.backend, mapper)
            for _ in range(self.config.num_workers)
        ]
        # Progressive replicas score a request's whole schedule in every
        # pass; the others run one full-stream forward pass.
        self._progressive = self._replicas[0].progressive
        self.stream_length = mapper.stream_length
        self.checkpoints = resolve_checkpoints(self.stream_length)
        #: Evaluation plan of an option-less request, resolved once.
        self._default_resolved = PredictOptions().resolve(
            self.stream_length, self.config.early_exit
        )
        self.cache = LruResultCache(self.config.cache_capacity)
        self.metrics = ServiceMetrics()
        #: Request tracer (sampling per ``trace_sample_rate``); at rate 0
        #: every recording site short-circuits on ``trace is None``.
        self.tracer = Tracer(
            self.config.trace_sample_rate,
            self.config.trace_capacity,
        )
        #: JSONL structured event log, when configured; receives this
        #: service's sampled traces and fault/overload events (written
        #: by :meth:`_log_event`, never by a handler on a shared logger).
        self.events: JsonlEventLog | None = (
            JsonlEventLog(self.config.event_log_path)
            if self.config.event_log_path
            else None
        )
        self._closed = False
        self._close_lock = threading.Lock()
        #: FIFO of admitted requests (and, after close(), one shutdown
        #: sentinel per worker), guarded by ``_close_lock``; a worker
        #: peeks at its head to keep its group within ``max_batch_size``.
        self._pending: deque = deque()
        self._queued = threading.Condition(self._close_lock)
        #: Requests admitted but not yet resolved; bounded by
        #: ``max_queue_depth``.  Guarded by ``_close_lock`` (same lock
        #: that serialises admission with close()).
        self._inflight = 0
        #: Replica restarts consumed per worker slot (the restart budget
        #: ``max_replica_restarts`` is per slot, not service-wide).
        self._restart_counts = [0] * self.config.num_workers
        self._fault_plan = self.config.fault_plan
        # Workers are handed their slot *index*, not the replica object:
        # the supervision path swaps ``_replicas[index]`` on restart and
        # the worker must pick up the replacement on the next attempt.
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"sc-serve-worker-{i}",
                daemon=True,
            )
            for i in range(len(self._replicas))
        ]
        for worker in self._workers:
            worker.start()

    # -- request path ----------------------------------------------------------

    def submit(
        self, images: np.ndarray, options: PredictOptions | None = None
    ) -> Future:
        """Enqueue a request; the future resolves to an
        :class:`InferenceResponse`.

        Validation is *fail-fast*: malformed images
        (:class:`~repro.errors.ShapeError` -- also for a shape the
        model's network cannot map -- /
        :class:`~repro.errors.EncodingError`) and invalid or unsupported
        options (:class:`~repro.errors.ConfigurationError`) raise here,
        in the caller, never as a worker-side future error.

        Admission is *bounded*: with ``max_queue_depth`` configured, a
        request arriving while that many are already in flight is shed
        with :class:`~repro.errors.ServiceOverloadError` (reason
        ``"queue_full"``) instead of queueing without bound.  Requests
        fully served from the cache bypass admission (they never queue).
        A request still queued when its ``deadline_ms`` runs out is shed
        by the worker that takes it: the future fails with the same
        error, reason ``"deadline"``.

        Args:
            images: one ``(channels, height, width)`` image or a small
                ``(batch, channels, height, width)`` batch in ``[0, 1]``.
            options: per-request inference options
                (:class:`~repro.config.PredictOptions`); ``None`` uses
                the service defaults.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        submit_started = time.perf_counter()
        arr = Backend._check_images(images)
        if arr.shape[0] == 0:
            raise ConfigurationError("a request needs at least one image")
        self.mapper.check_input_shape(arr.shape[1:])
        resolved = self._resolve_options(options)
        trace = self.tracer.begin()
        if self.cache.capacity:
            digests = [image_digest(image) for image in arr]
            rows: list[CachedResult | None] = [
                self.cache.get(self._cache_key(digest, resolved))
                for digest in digests
            ]
        else:
            # Cache disabled: skip the per-image digests and lookups
            # entirely (they would cost a hash pass per image on the
            # latency hot path for guaranteed misses).
            digests = [""] * arr.shape[0]
            rows = [None] * arr.shape[0]
        request = _PendingRequest(arr, digests, rows, resolved)
        request.trace = trace
        if trace is not None:
            trace.add_span(
                "submit",
                submit_started,
                request.submitted_at,
                n_images=request.n_images,
                cache_hits=request.n_images - request.n_compute,
            )
        if request.n_compute == 0:
            self._finish(request, cache_hits=request.n_images, exits=())
            return request.future
        # Enqueueing is serialised with close(): the closed re-check and
        # the append happen under the lock close() uses to enqueue the
        # workers' shutdown sentinels, so a request can never land behind
        # them and leave its future unresolved.  The same lock makes the
        # depth check and the in-flight increment atomic.
        with self._close_lock:
            if self._closed:
                raise ConfigurationError("service is closed")
            depth = self.config.max_queue_depth
            if depth is not None and self._inflight >= depth:
                self.metrics.record_shed("queue_full")
                self._log_event(
                    logging.INFO,
                    "shed",
                    "shed request: admission queue full (%d in flight)",
                    self._inflight,
                    reason="queue_full",
                    inflight=self._inflight,
                )
                raise ServiceOverloadError(
                    f"admission queue is full ({self._inflight} requests "
                    f"in flight, max_queue_depth={depth}); retry later "
                    "or raise max_queue_depth",
                    reason="queue_full",
                )
            self._inflight += 1
            request.counted = True
            self._pending.append(request)
            self._queued.notify()
        return request.future

    def infer(
        self,
        images: np.ndarray,
        options: PredictOptions | None = None,
        timeout: float | None = None,
    ) -> InferenceResponse:
        """Synchronous convenience wrapper: submit and wait.

        On ``timeout`` the request is *cancelled* before re-raising: an
        abandoned request must not keep occupying an admission slot and
        worker time nobody will read.  Cancellation succeeds until a
        worker records the answer (only then does the future enter the
        running state); a request cancelled while a worker computes it
        completes and its result is dropped.
        """
        future = self.submit(images, options)
        try:
            return future.result(timeout=timeout)
        except FuturesTimeoutError:
            self.cancel(future)
            raise

    def cancel(self, future: Future) -> bool:
        """Drop a submitted request before a worker picks it up.

        Returns True when the future was still pending and is now
        cancelled: its admission slot is released immediately, workers
        skip it at dispatch, and the cancellation is counted in
        :class:`~repro.serve.metrics.ServiceMetrics`.  Returns False when
        the request already resolved (or was already cancelled).
        """
        if not future.cancel():
            return False
        request = getattr(future, "sc_request", None)
        if isinstance(request, _PendingRequest):
            self._release(request)
        self.metrics.record_cancelled()
        return True

    def _release(self, request: _PendingRequest) -> None:
        """Give back the request's admission slot (exactly once)."""
        with self._close_lock:
            if request.counted:
                request.counted = False
                self._inflight -= 1

    def _resolve_options(
        self, options: PredictOptions | None
    ) -> ResolvedPredictOptions:
        """Resolve request options against this service's configuration.

        Raises in the submitting caller when the request demands
        stream-prefix evaluation (reduced stream length / explicit
        checkpoints) but the configured backend cannot provide it.
        """
        if options is None:
            return self._default_resolved
        resolved = options.resolve(self.stream_length, self.config.early_exit)
        if resolved.explicit_schedule and not self._progressive:
            raise ConfigurationError(
                "per-request stream lengths / checkpoint schedules need "
                "a progressive backend, but this service is configured "
                f"with {self.config.backend!r} (pick a backend whose "
                "'progressive' capability flag is set)"
            )
        return resolved

    def _cache_key(self, digest: str, resolved: ResolvedPredictOptions):
        return LruResultCache.key(
            digest, self.config.backend, self.stream_length, resolved.cache_token
        )

    # -- workers ---------------------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        """One worker thread: take the queue, run it, never die.

        The worker waits for one request, then takes the requests queued
        behind it while its group stays within ``max_batch_size`` images
        (a lone request larger than that runs alone), and runs that group
        at once: an idle service never holds a request, and requests that
        arrived while every replica was busy are batched by the next free
        one.  A shutdown sentinel (one per worker, queued by :meth:`close`
        behind every admitted request) ends the loop; one met while
        taking a group stays at the head for the next take.

        Every failure mode below resolves the affected futures with a
        typed error; the blanket handler is the last line of defence
        against bugs in the bookkeeping itself (not the execution path,
        which :meth:`_execute_bucket` supervises) and likewise routes the
        failure to the batch's futures instead of killing the thread.
        """
        max_batch = self.config.max_batch_size
        pending = self._pending
        while True:
            with self._queued:
                self._queued.wait_for(lambda: pending)
                if pending[0] is _SHUTDOWN:
                    pending.popleft()
                    return
                group = [pending.popleft()]
                total = group[0].n_compute
                while (
                    pending
                    and pending[0] is not _SHUTDOWN
                    and total + pending[0].n_compute <= max_batch
                ):
                    group.append(pending.popleft())
                    total += group[-1].n_compute
            # Requests cancelled while queued are dropped, and those whose
            # deadline ran out while queued are shed, before the batch is
            # counted or any compute is spent on them.
            group = self._shed_expired(
                [r for r in group if not r.future.cancelled()]
            )
            if not group:
                continue
            seq = self.metrics.record_batch(sum(r.n_compute for r in group))
            try:
                self._process_group(seq, group, index)
            except Exception as exc:  # pragma: no cover - defensive
                error = InferenceError(
                    f"internal serving error on worker {index}: {exc!r}"
                )
                error.__cause__ = exc
                self._fail_bucket(group, error)

    def _shed_expired(
        self, group: list[_PendingRequest]
    ) -> list[_PendingRequest]:
        """Shed the requests whose deadline ran out while they queued.

        Each resolves with :class:`~repro.errors.ServiceOverloadError`
        (reason ``"deadline"``) and is counted as a shed before it
        resolves; the requests taken in time are returned, to be
        answered in full.
        """
        now = time.perf_counter()
        live = []
        for request in group:
            if request.deadline_at is None or now < request.deadline_at:
                live.append(request)
                continue
            if not request.future.set_running_or_notify_cancel():
                continue  # cancelled since; cancel() released its slot
            self._release(request)
            self.metrics.record_shed("deadline")
            deadline_ms = request.resolved.deadline_ms
            self._log_event(
                logging.INFO,
                "shed",
                "shed request: its deadline of %g ms ran out in the queue",
                deadline_ms,
                reason="deadline",
                deadline_ms=deadline_ms,
            )
            if request.trace is not None:
                self.tracer.finish(request.trace)
            request.future.set_exception(
                ServiceOverloadError(
                    f"deadline of {deadline_ms:g} ms ran out while the "
                    "request was queued",
                    reason="deadline",
                )
            )
        return live

    def _process_group(
        self, seq: int, group: list[_PendingRequest], index: int
    ) -> None:
        # A merged batch may mix requests with different effective
        # options or image shapes; bucketing by evaluation plan and shape
        # keeps each sub-batch on one schedule and one stackable shape
        # (micro-batching stays transparent per bucket).
        buckets: dict[tuple, list[_PendingRequest]] = {}
        for request in group:
            key = (request.resolved.cache_token, request.compute_images.shape[1:])
            buckets.setdefault(key, []).append(request)
        for bucket in buckets.values():
            self._execute_bucket(bucket, index, seq)

    def _execute_bucket(
        self, bucket: list[_PendingRequest], index: int, seq: int
    ) -> None:
        """Run one bucket under replica supervision.

        Failure policy, by exception type:

        * :class:`~repro.errors.InferenceError` (and injected poisoned
          batches) is request-scoped: fail this bucket's futures, keep
          the replica, never retry.
        * Anything else is replica-scoped (a crash): rebuild
          the worker's replica (exponential backoff, bounded by the
          per-slot restart budget) and re-execute the bucket, up to
          ``max_batch_retries`` retries.  When the budget or the retries
          run out the futures fail with a typed error chaining the
          original crash.
        """
        attempts = 1 + self.config.max_batch_retries
        for attempt in range(attempts):
            replica = self._replicas[index]
            try:
                if self._fault_plan is not None:
                    self._fault_plan.before_batch(
                        worker=index, replica=replica
                    )
                self._process_bucket(bucket, replica, index, seq)
                return
            except InferenceError as exc:
                self._fail_bucket(bucket, exc)
                return
            except Exception as exc:
                retriable = (
                    attempt + 1 < attempts and self._restart_replica(index)
                )
                if not retriable:
                    error = InferenceError(
                        f"batch execution failed on worker {index} after "
                        f"{attempt + 1} attempt(s): {exc!r}"
                    )
                    error.__cause__ = exc
                    self._log_event(
                        logging.WARNING,
                        "batch_failed",
                        "batch failed on worker %d after %d attempt(s): %r",
                        index,
                        attempt + 1,
                        exc,
                        worker=index,
                        batch_seq=seq,
                        attempts=attempt + 1,
                        error=repr(exc),
                    )
                    self._fail_bucket(bucket, error)
                    return
                for request in bucket:
                    request.retries += 1
                self.metrics.record_retry()

    def _restart_replica(self, index: int) -> bool:
        """Rebuild worker ``index``'s replica after a crash.

        Returns False when the slot's restart budget
        (``max_replica_restarts``) is spent -- the caller then fails the
        bucket instead of retrying.  Backoff doubles per consumed restart
        (``restart_backoff_ms`` base, capped at one second) so a
        hard-crashing replica cannot spin the worker.
        """
        used = self._restart_counts[index]
        if used >= self.config.max_replica_restarts:
            return False
        delay = min(self.config.restart_backoff_ms / 1e3 * (2**used), 1.0)
        if delay > 0:
            time.sleep(delay)
        name = self.config.backend
        self._replicas[index] = create_backend(name, self.mapper)
        self._restart_counts[index] = used + 1
        self.metrics.record_restart()
        self._log_event(
            logging.WARNING,
            "replica_restart",
            "restarted replica %r on worker %d (restart %d of %d)",
            name,
            index,
            used + 1,
            self.config.max_replica_restarts,
            worker=index,
            backend=name,
            restart=used + 1,
            budget=self.config.max_replica_restarts,
        )
        return True

    def _log_event(
        self, level: int, kind: str, msg: str, *args: object, **fields: object
    ) -> None:
        """Log one fault/overload event and write it to this service's log.

        The ``repro.serve`` record carries the event as its
        ``obs_event`` extra (``{"kind": kind, **fields}``), so an
        application's own handlers still receive it.  The JSONL copy is
        written here, straight to :attr:`events`: it lands whatever the
        logger's level, and only in this service's file.
        """
        _LOG.log(level, msg, *args, extra={"obs_event": {"kind": kind, **fields}})
        if self.events is not None:
            self.events.emit(
                kind,
                level=logging.getLevelName(level),
                logger=_LOG.name,
                message=msg % args,
                **fields,
            )

    def _fail_bucket(
        self, bucket: list[_PendingRequest], error: BaseException
    ) -> None:
        """Resolve a bucket's futures with ``error`` (never raises)."""
        for request in bucket:
            try:
                request.future.set_exception(error)
            except InvalidStateError:
                # Cancelled (slot already released) or already resolved.
                continue
            self._release(request)
            self.metrics.record_failure()
            if request.trace is not None:
                self.tracer.finish(request.trace)
                if self.events is not None:
                    self.events.emit(
                        "request_failed",
                        trace_id=request.trace.trace_id,
                        error=repr(error),
                        retries=request.retries,
                    )

    def _process_bucket(
        self,
        bucket: list[_PendingRequest],
        replica: Backend,
        index: int,
        seq: int,
    ) -> None:
        exec_start = time.perf_counter()
        for request in bucket:
            # The *first* execution attempt ends the queue stage; a
            # retried bucket keeps the original mark so queue time never
            # silently absorbs retry work.
            if request.exec_started_at is None:
                request.exec_started_at = exec_start
            request.batch_seq = seq
            request.worker = index
            request.replica_name = replica.name
        resolved = bucket[0].resolved
        images = np.concatenate(
            [request.compute_images for request in bucket], axis=0
        )
        # Progressive replicas always score the whole schedule, even with
        # early exit off, so every row of a response (cached rows
        # included) covers the same schedule.
        started = time.perf_counter()
        result = progressive_forward(
            replica,
            images,
            resolved.checkpoints,
            margin=self.config.margin,
            stable_checkpoints=self.config.stable_checkpoints,
            early_exit=resolved.early_exit,
        )
        now = time.perf_counter()
        offset = 0
        for request in bucket:
            if request.trace is not None:
                self._record_bucket_spans(
                    request,
                    exec_start=exec_start,
                    forward_started=started,
                    ended=now,
                    points=result.checkpoints,
                    batch_images=images.shape[0],
                    forward_name=(
                        "forward_partial" if replica.progressive else "forward"
                    ),
                )
            self._fulfill(request, result, offset)
            offset += request.n_compute

    def _record_bucket_spans(
        self,
        request: _PendingRequest,
        exec_start: float,
        forward_started: float,
        ended: float,
        points: tuple[int, ...],
        batch_images: int,
        forward_name: str,
    ) -> None:
        """Record one request's compute-side spans (successful attempt).

        Spans are only recorded once the bucket attempt *succeeded* --
        an attempt that raises unwinds before this point, so retries
        never leave duplicate span records behind (the retry count is
        carried as an annotation instead).
        """
        trace = request.trace
        queue_end = (
            request.exec_started_at
            if request.exec_started_at is not None
            else exec_start
        )
        trace.add_span(
            "queue",
            request.submitted_at,
            queue_end,
            batch_seq=request.batch_seq,
            worker=request.worker,
        )
        compute = trace.add_span(
            "compute",
            exec_start,
            ended,
            replica=request.replica_name,
            worker=request.worker,
            batch_seq=request.batch_seq,
            batch_images=batch_images,
            retries=request.retries,
        )
        trace.add_span(
            forward_name,
            forward_started,
            ended,
            parent=compute,
            checkpoints=list(points),
            batch_images=batch_images,
        )

    def _fulfill(
        self, request: _PendingRequest, result: ProgressiveResult, offset: int
    ) -> None:
        """Fill and cache the request's computed rows (from row ``offset``
        of its bucket's ``result`` on), then answer it."""
        cache_started = time.perf_counter()
        for j, index in enumerate(request.compute_indices, start=offset):
            row = CachedResult(
                scores=np.array(result.scores[j]),
                prediction=int(result.predictions[j]),
                exit_checkpoint=int(result.exit_checkpoints[j]),
                checkpoint_scores=np.array(result.checkpoint_scores[:, j]),
            )
            request.rows[index] = row
            if self.cache.capacity:
                self.cache.put(
                    self._cache_key(request.digests[index], request.resolved),
                    row,
                )
        if request.trace is not None and self.cache.capacity:
            request.trace.add_span(
                "cache_write",
                cache_started,
                time.perf_counter(),
                entries=request.n_compute,
            )
        exits = result.exit_checkpoints[offset : offset + request.n_compute]
        self._finish(
            request,
            cache_hits=request.n_images - request.n_compute,
            exits=tuple(int(p) for p in exits),
        )

    def _finish(
        self,
        request: _PendingRequest,
        cache_hits: int,
        exits,
    ) -> None:
        # One `end` mark prices latency AND the queue/service split, so
        # `queue + service == latency` holds to float precision (the
        # exactness contract the trace tests pin down).
        end = time.perf_counter()
        latency = end - request.submitted_at
        if request.exec_started_at is None:
            # Answered entirely from the cache: never queued for compute.
            queue_s, service_s = 0.0, latency
        else:
            queue_s = request.exec_started_at - request.submitted_at
            service_s = end - request.exec_started_at
        summary = (
            self._summarise_trace(request, queue_s, service_s, latency)
            if request.trace is not None
            else None
        )
        response = request.response(
            stream_length=self.stream_length,
            latency_seconds=latency,
            checkpoints=(
                request.resolved.checkpoints
                if self._progressive
                else (self.stream_length,)
            ),
            trace=summary,
        )
        future = request.future
        if future.done() or not future.set_running_or_notify_cancel():
            # Cancelled between dispatch and completion (the result is
            # dropped and cancel() released the admission slot), or
            # answered by an earlier attempt of a retried bucket.
            return
        # Account for the request before resolving it: a caller holding
        # the answer already finds it in the metrics.
        self._release(request)
        self.metrics.record_request(
            latency,
            exits,
            self.stream_length,
            cache_hits=cache_hits,
            n_images=request.n_images,
            queue_seconds=queue_s,
            service_seconds=service_s,
        )
        future.set_result(response)

    def _summarise_trace(
        self,
        request: _PendingRequest,
        queue_s: float,
        service_s: float,
        latency: float,
    ) -> TraceSummary:
        """Digest a finished request's trace and retire it to the buffer."""
        trace = request.trace
        forward = trace.find("forward_partial") or trace.find("forward")
        checkpoints: tuple[int, ...] = ()
        checkpoint_ms: tuple[float, ...] = ()
        if forward is not None and forward.duration_ms is not None:
            checkpoints = tuple(forward.annotations.get("checkpoints", ()))
            if checkpoints:
                # One fused pass evaluates every checkpoint as a stream
                # prefix; attribute its measured duration pro rata by
                # cycles (simulation cost is linear in stream cycles).
                total = forward.duration_ms
                last = checkpoints[-1]
                checkpoint_ms = tuple(
                    total * point / last for point in checkpoints
                )
        compute = trace.find("compute")
        summary = TraceSummary(
            trace_id=trace.trace_id,
            queue_ms=queue_s * 1e3,
            service_ms=service_s * 1e3,
            latency_ms=latency * 1e3,
            stages=trace.stage_ms(),
            checkpoints=checkpoints,
            checkpoint_ms=checkpoint_ms,
            replica=request.replica_name,
            worker=request.worker,
            batch_seq=request.batch_seq,
            batch_images=(
                compute.annotations.get("batch_images")
                if compute is not None
                else None
            ),
            retries=request.retries,
            cached_images=request.n_images - request.n_compute,
        )
        self.tracer.finish(trace)
        if self.events is not None:
            payload = trace.to_dict()
            payload["summary"] = summary.to_dict()
            self.events.emit("trace", **payload)
        return summary

    # -- observability ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Service metrics plus kernel / workspace / tracing views.

        Everything :meth:`ServiceMetrics.snapshot` reports, extended
        with:

        * ``"kernels"`` -- per-kernel, per-tier invocation counters
          merged across every replica (``Backend.kernel_snapshot``), so
          the snapshot attributes work to the native or NumPy tier it
          actually ran on;
        * ``"workspaces"`` -- per-replica buffer-arena statistics (each
          entry's ``"worker"`` is the replica index, rendered as the
          ``replica`` label);
        * ``"tracing"`` -- the tracer's sampling counters.

        This is the dict the Prometheus writer
        (:func:`repro.obs.prometheus_text`) renders.
        """
        snap = self.metrics.snapshot()
        snap["kernels"] = merge_kernel_snapshots(
            replica.kernel_snapshot() for replica in self._replicas
        )
        workspaces = []
        for i, replica in enumerate(self._replicas):
            stats = replica.workspace_stats()
            if stats is not None:
                workspaces.append({"worker": i, **stats})
        snap["workspaces"] = workspaces
        snap["tracing"] = self.tracer.stats()
        return snap

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting requests, finish the queue, join the threads."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            # Inside the lock: every request enqueued by submit() is now
            # guaranteed to precede the sentinels in the FIFO queue, so
            # the workers answer all of them before they stop.
            self._pending.extend([_SHUTDOWN] * len(self._workers))
            self._queued.notify_all()
        for worker in self._workers:
            worker.join()
        if self.events is not None:
            self.events.close()

    def __enter__(self) -> "ScInferenceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScInferenceService(backend={self.config.backend!r}, "
            f"workers={self.config.num_workers}, "
            f"stream_length={self.stream_length}, "
            f"checkpoints={self.checkpoints})"
        )
