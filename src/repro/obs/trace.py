"""Lightweight request tracing: sampled spans with near-zero off cost.

A :class:`Tracer` decides once per request whether it is *sampled*; an
unsampled request pays a single comparison (rate 0) or one RNG draw and
never allocates, while a sampled one carries a :class:`Trace` through the
serving pipeline, accumulating :class:`Span` records per stage
(submit -> queue -> compute -> cache write).  Completed traces land in a
bounded ring buffer for the CLI / event log to read; nothing grows
without bound in a long-running service.

Spans are recorded from explicit timestamps (:meth:`Trace.add_span`).
Stages cross thread boundaries (the submit thread enqueues, a worker
thread computes), so each stage is recorded from monotonic marks the
service already takes, with the parent passed explicitly.

All timestamps are ``time.perf_counter()`` seconds; serialized forms
report milliseconds relative to the trace start.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = ["Span", "Trace", "TraceSummary", "Tracer"]

_TRACE_IDS = itertools.count(1)


@dataclass
class Span:
    """One named, timed stage of a trace.

    Attributes:
        name: stage name (e.g. ``"queue"``, ``"forward_partial"``).
        span_id: identifier unique within the trace.
        parent_id: ``span_id`` of the enclosing span (``None`` for the
            root).
        started_at / ended_at: ``perf_counter`` marks (``ended_at`` is
            ``None`` while the span is open).
        annotations: small JSON-friendly payload (replica name, batch
            sequence number, checkpoint schedule, ...).
    """

    name: str
    span_id: int
    parent_id: int | None
    started_at: float
    ended_at: float | None = None
    annotations: dict = field(default_factory=dict)

    @property
    def duration_ms(self) -> float | None:
        """Span duration in milliseconds (``None`` while open)."""
        if self.ended_at is None:
            return None
        return (self.ended_at - self.started_at) * 1e3


class Trace:
    """One sampled request's spans (thread-safe appends).

    Created through :meth:`Tracer.begin`; the root span (named
    ``"request"``) opens at construction and is closed by
    :meth:`Tracer.finish`.
    """

    __slots__ = ("trace_id", "started_at", "spans", "root", "_lock", "_ids")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.started_at = time.perf_counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        self.root = Span(
            name="request",
            span_id=0,
            parent_id=None,
            started_at=self.started_at,
        )
        self.spans.append(self.root)

    def add_span(
        self,
        name: str,
        started_at: float,
        ended_at: float,
        parent: "Span | None" = None,
        **annotations: object,
    ) -> Span:
        """Record a completed stage from explicit ``perf_counter`` marks.

        The serving layer's recording primitive: stages cross thread
        boundaries there, so the parent is passed explicitly (``None``
        parents under the root span).
        """
        with self._lock:
            span = Span(
                name=name,
                span_id=next(self._ids),
                parent_id=(parent or self.root).span_id,
                started_at=started_at,
                ended_at=ended_at,
                annotations=dict(annotations) if annotations else {},
            )
            self.spans.append(span)
            return span

    def stage_ms(self) -> dict[str, float]:
        """Total duration per span name, in milliseconds.

        Repeated stage names (e.g. a retried ``compute``) accumulate.
        Open spans are skipped.
        """
        totals: dict[str, float] = {}
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            duration = span.duration_ms
            if duration is None or span.span_id == 0:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + duration
        return totals

    def find(self, name: str) -> Span | None:
        """The first recorded span with the given name, if any."""
        with self._lock:
            for span in self.spans:
                if span.name == name:
                    return span
        return None

    def to_dict(self) -> dict:
        """JSON-friendly form: span times in ms relative to trace start."""
        with self._lock:
            spans = list(self.spans)
        return {
            "trace_id": self.trace_id,
            "spans": [
                {
                    "name": span.name,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "start_ms": (span.started_at - self.started_at) * 1e3,
                    "duration_ms": span.duration_ms,
                    **(
                        {"annotations": span.annotations}
                        if span.annotations
                        else {}
                    ),
                }
                for span in spans
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(id={self.trace_id!r}, spans={len(self.spans)})"


@dataclass(frozen=True)
class TraceSummary:
    """Per-request trace digest carried on an ``InferenceResponse``.

    The queue/service split is exact by construction: all three numbers
    are computed from the same pair of monotonic marks, so
    ``queue_ms + service_ms == latency_ms`` up to float rounding.

    Attributes:
        trace_id: identifier shared with the full trace in the ring
            buffer / event log.
        queue_ms: submit-to-first-execution wall time (0 for requests
            answered entirely from the result cache).
        service_ms: first-execution-to-response wall time.
        latency_ms: total submit-to-response wall time.
        stages: total milliseconds per recorded stage name.
        checkpoints: the evaluated checkpoint schedule (empty for
            cache-only requests).
        checkpoint_ms: estimated cumulative compute milliseconds to reach
            each checkpoint -- the single fused evaluation's measured
            duration attributed pro rata by stream cycles (the simulation
            cost is linear in cycles; per-checkpoint splits are not
            physically separable from one fused pass).
        replica: registry name of the backend replica that computed the
            request (``None`` for cache-only requests).
        worker: worker-thread slot index, likewise.
        batch_seq: service-wide sequence number of the merged batch.
        batch_images: images in the merged bucket that computed this
            request.
        retries: bucket re-executions this request survived.
        degraded: overload degradation flag (mirrors the response).
        cached_images: images of this request served from the cache.
    """

    trace_id: str
    queue_ms: float
    service_ms: float
    latency_ms: float
    stages: dict[str, float]
    checkpoints: tuple[int, ...] = ()
    checkpoint_ms: tuple[float, ...] = ()
    replica: str | None = None
    worker: int | None = None
    batch_seq: int | None = None
    batch_images: int | None = None
    retries: int = 0
    degraded: bool = False
    cached_images: int = 0

    def to_dict(self) -> dict:
        """JSON-friendly form (tuples become lists)."""
        return {
            "trace_id": self.trace_id,
            "queue_ms": self.queue_ms,
            "service_ms": self.service_ms,
            "latency_ms": self.latency_ms,
            "stages": dict(self.stages),
            "checkpoints": list(self.checkpoints),
            "checkpoint_ms": list(self.checkpoint_ms),
            "replica": self.replica,
            "worker": self.worker,
            "batch_seq": self.batch_seq,
            "batch_images": self.batch_images,
            "retries": self.retries,
            "degraded": self.degraded,
            "cached_images": self.cached_images,
        }


class Tracer:
    """Sampling trace collector with a bounded completed-trace buffer.

    Args:
        sample_rate: fraction of requests that carry a trace.  ``0.0``
            never samples (one float comparison per request, no RNG
            draw, no allocation); ``1.0`` always samples; in between,
            requests are sampled independently at this probability.
        capacity: completed traces retained (ring buffer; older traces
            are evicted).
        seed: RNG seed for the in-between sampling decisions, making
            fractional sampling reproducible.  ``None`` seeds from
            entropy.
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        capacity: int = 256,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must lie in [0, 1], got {sample_rate}"
            )
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sample_rate = float(sample_rate)
        self.capacity = int(capacity)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._completed: deque[Trace] = deque(maxlen=capacity)
        self._started = 0
        self._sampled = 0
        self._finished = 0

    def begin(self) -> Trace | None:
        """Sampling decision for one request.

        Returns a live :class:`Trace` when sampled, else ``None`` --
        callers guard every recording site with ``if trace is not
        None``, which is what makes the off path near-free.
        """
        rate = self.sample_rate
        if rate <= 0.0:
            return None
        with self._lock:
            self._started += 1
            if rate < 1.0 and self._rng.random() >= rate:
                return None
            self._sampled += 1
            trace_id = f"t{next(_TRACE_IDS):08x}"
        return Trace(trace_id)

    def finish(self, trace: Trace) -> None:
        """Close a trace's root span and retain it in the ring buffer."""
        trace.root.ended_at = time.perf_counter()
        with self._lock:
            self._finished += 1
            self._completed.append(trace)

    def recent(self, limit: int | None = None) -> list[dict]:
        """The most recent completed traces, oldest first, as dicts."""
        with self._lock:
            traces = list(self._completed)
        if limit is not None:
            traces = traces[-limit:]
        return [trace.to_dict() for trace in traces]

    def stats(self) -> dict:
        """Sampling counters for ``snapshot()["tracing"]``."""
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "decisions": self._started,
                "sampled": self._sampled,
                "finished": self._finished,
                "buffered": len(self._completed),
                "capacity": self.capacity,
            }
