"""Service-level metrics: latency percentiles, throughput, exit savings.

The serving story needs numbers, not anecdotes: the micro-batching
scheduler trades a bounded queueing delay for larger (faster-per-image)
batches, the progressive engine trades checkpoints for stream cycles, and
the cache trades memory for recomputation.  :class:`ServiceMetrics`
accumulates the per-request observations that quantify all three --
perfbench's serving workloads read its snapshots, and
``benchmarks/bench_serve.py`` asserts its cache and fault accounting.

The request tracing of :mod:`repro.obs` splits every request's latency
into *queue time* (submit to first execution) and *service time* (first
execution to completion); :meth:`ServiceMetrics.record_request` accepts
the split and :meth:`snapshot` reports each series as percentiles plus a
fixed-bound histogram in the shape the Prometheus exposition writer
(:func:`repro.obs.prometheus_text`) renders directly -- for a service,
and under a ``worker`` / ``model`` label for a fleet or a registry.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

__all__ = ["ServiceMetrics"]

#: Upper bounds (milliseconds) of the queue-time / service-time histogram
#: buckets; one overflow bucket (``+Inf``) follows the last bound.
HISTOGRAM_BOUNDS_MS: tuple[float, ...] = (
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1000.0,
    2000.0,
    5000.0,
)


class _Histogram:
    """Fixed-bound histogram accumulator (caller holds the metrics lock)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] = HISTOGRAM_BOUNDS_MS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = int(np.searchsorted(self.bounds, value, side="left"))
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def to_dict(self) -> dict:
        return {
            "le": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


def _series_stats(values: np.ndarray) -> dict | None:
    """Percentile/mean summary of a window series (computed lock-free)."""
    if not values.size:
        return None
    p50, p95, p99 = np.percentile(values, (50, 95, 99))
    return {
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean": float(values.mean()),
    }


class ServiceMetrics:
    """Thread-safe accumulator of serving observations.

    One instance lives inside each :class:`~repro.serve.ScInferenceService`;
    tests and benchmarks read :meth:`snapshot`.

    Totals (requests, images, cycles, cache hits) are exact running
    counters; the percentile / mean statistics are computed over a
    sliding window of the most recent observations so that memory stays
    bounded in a long-running service.

    :meth:`snapshot` copies the window series while holding the lock and
    does the percentile math *outside* it, so a metrics read never stalls
    the request hot path behind an ``np.percentile`` over the full
    65536-entry window.

    Args:
        window: per-series observations retained for the percentile and
            mean statistics.
    """

    #: Default sliding-window length for latency / batch / exit series.
    DEFAULT_WINDOW = 65536

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=window)
        self._batch_sizes: deque[int] = deque(maxlen=window)
        self._exit_checkpoints: deque[int] = deque(maxlen=window)
        self._queue_ms: deque[float] = deque(maxlen=window)
        self._service_ms: deque[float] = deque(maxlen=window)
        self._queue_hist = _Histogram()
        self._service_hist = _Histogram()
        self._requests = 0
        self._batches = 0
        self._full_cycles = 0
        self._spent_cycles = 0
        self._images = 0
        self._cache_hits = 0
        self._started = time.perf_counter()
        self._first_completion: float | None = None
        self._last_completion: float | None = None
        # Fault-tolerance counters (exact running totals).
        self._sheds: dict[str, int] = {}
        self._degraded_requests = 0
        self._retries = 0
        self._restarts = 0
        self._failed_requests = 0
        self._cancelled_requests = 0

    def record_batch(self, n_images: int) -> None:
        """One merged batch dispatched to a worker."""
        with self._lock:
            self._batches += 1
            self._batch_sizes.append(int(n_images))

    def record_request(
        self,
        latency_seconds: float,
        exit_checkpoints,
        stream_length: int,
        cache_hits: int = 0,
        n_images: int | None = None,
        queue_seconds: float | None = None,
        service_seconds: float | None = None,
    ) -> None:
        """One completed request.

        Args:
            latency_seconds: submit-to-response wall time.
            exit_checkpoints: stream cycles consumed per *computed* image
                (cache hits consume none and are excluded).
            stream_length: the full stream length ``N``.
            cache_hits: images served from the cache.
            n_images: total images in the request (computed + cached);
                defaults to the number of computed images plus the hits.
            queue_seconds: time spent queued before the first execution
                attempt (``None`` when the caller did not split it).
            service_seconds: time from first execution to completion.
        """
        exits = [int(p) for p in np.atleast_1d(np.asarray(exit_checkpoints))]
        now = time.perf_counter()
        with self._lock:
            self._requests += 1
            self._latencies.append(float(latency_seconds))
            if queue_seconds is not None:
                queue_ms = float(queue_seconds) * 1e3
                self._queue_ms.append(queue_ms)
                self._queue_hist.observe(queue_ms)
            if service_seconds is not None:
                service_ms = float(service_seconds) * 1e3
                self._service_ms.append(service_ms)
                self._service_hist.observe(service_ms)
            self._exit_checkpoints.extend(exits)
            self._full_cycles += stream_length * len(exits)
            self._spent_cycles += sum(exits)
            self._cache_hits += int(cache_hits)
            self._images += (
                int(n_images) if n_images is not None else len(exits) + cache_hits
            )
            if self._first_completion is None:
                self._first_completion = now
            self._last_completion = now

    def record_shed(self, reason: str) -> None:
        """One request rejected by admission control (never queued)."""
        with self._lock:
            self._sheds[reason] = self._sheds.get(reason, 0) + 1

    def record_degraded(self, n_requests: int = 1) -> None:
        """Requests answered at an overload-capped checkpoint schedule."""
        with self._lock:
            self._degraded_requests += int(n_requests)

    def record_retry(self) -> None:
        """One merged-batch bucket re-executed after a replica failure."""
        with self._lock:
            self._retries += 1

    def record_restart(self) -> None:
        """One backend replica rebuilt by the supervision path."""
        with self._lock:
            self._restarts += 1

    def record_failure(self, n_requests: int = 1) -> None:
        """Requests whose futures resolved with a typed InferenceError."""
        with self._lock:
            self._failed_requests += int(n_requests)

    def record_cancelled(self) -> None:
        """One request cancelled (e.g. timeout abandonment) before compute."""
        with self._lock:
            self._cancelled_requests += 1

    def snapshot(self) -> dict:
        """Current aggregate view (all quantities are cheap to recompute).

        Returns a dict with request/image counts, latency percentiles
        (``p50/p95/p99``, milliseconds), the queue-time / service-time
        split (percentiles plus fixed-bound histograms), throughput
        (images per second over the completion window), micro-batch
        statistics, cache hit rate, and the progressive-exit summary
        (mean exit checkpoint and the mean stream-cycle reduction
        ``N * images / cycles spent``).  Counts and the cycle reduction
        are exact totals; percentile/mean statistics cover the most
        recent ``window`` observations.
        """
        with self._lock:
            latencies = np.asarray(self._latencies)
            batches = np.asarray(self._batch_sizes)
            exits = np.asarray(self._exit_checkpoints)
            queue_ms = np.asarray(self._queue_ms)
            service_ms = np.asarray(self._service_ms)
            queue_hist = self._queue_hist.to_dict()
            service_hist = self._service_hist.to_dict()
            counts = {
                "requests": self._requests,
                "images": self._images,
                "cache_hits": self._cache_hits,
                "batches": self._batches,
                "full_cycles": self._full_cycles,
                "spent_cycles": self._spent_cycles,
            }
            faults = {
                "shed": {**self._sheds, "total": sum(self._sheds.values())},
                "degraded_requests": self._degraded_requests,
                "retries": self._retries,
                "restarts": self._restarts,
                "failed_requests": self._failed_requests,
                "cancelled_requests": self._cancelled_requests,
            }
            first = self._first_completion
            last = self._last_completion
            started = self._started
        # Percentiles over window-sized copies, outside the lock.
        latency = _series_stats(latencies * 1e3 if latencies.size else latencies)
        queue_stats = _series_stats(queue_ms)
        service_stats = _series_stats(service_ms)
        snapshot = {
            "requests": counts["requests"],
            "images": counts["images"],
            "cache_hits": counts["cache_hits"],
            "cache_hit_rate": (
                counts["cache_hits"] / counts["images"]
                if counts["images"]
                else 0.0
            ),
            "batches": counts["batches"],
            "mean_batch_size": float(batches.mean()) if batches.size else 0.0,
            "max_batch_size": int(batches.max()) if batches.size else 0,
            "latency_ms": latency,
            "queue_time_ms": (
                {**queue_stats, "histogram": queue_hist}
                if queue_stats is not None
                else None
            ),
            "service_time_ms": (
                {**service_stats, "histogram": service_hist}
                if service_stats is not None
                else None
            ),
            "mean_exit_checkpoint": (
                float(exits.mean()) if exits.size else None
            ),
            "cycle_reduction": (
                counts["full_cycles"] / counts["spent_cycles"]
                if counts["spent_cycles"]
                else None
            ),
            "faults": faults,
        }
        if first is not None and last is not None:
            window = last - first
            # A single completion has no window; fall back to the
            # service lifetime so throughput stays finite.
            if window <= 0:
                window = last - started
            snapshot["throughput_images_per_sec"] = (
                counts["images"] / window if window > 0 else None
            )
        else:
            snapshot["throughput_images_per_sec"] = None
        return snapshot
