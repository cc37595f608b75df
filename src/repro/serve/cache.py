"""LRU result cache for the inference service.

Serving traffic is repetitive -- the same image recurs (retries, popular
inputs, idempotent clients), and every SC evaluation of a given image is
deterministic given the backend, the stream length and the effective
request options (all randomness is seeded per forward pass).  Results are
therefore cached under the key ``(image digest, backend name, stream
length, effective options)``: a hit returns the stored scores without
spending a single stream cycle, which the service metrics report as cache
hit rate alongside the early-exit savings.  The options component
(:attr:`repro.config.ResolvedPredictOptions.cache_token`) is what keeps
two requests that differ only in checkpoint schedule or per-request
stream length from ever sharing an entry -- the scores stored for one
schedule are stale for the other.

An entry holds the image's scores at every checkpoint of the evaluated
schedule, not only at its exit, so a response mixing cached and computed
images still carries one ``(n_checkpoints, batch, n_classes)`` array.

Only *nominal* results enter the cache.  Deadline-capped answers
(wall-clock artefacts of one request's latency budget) and
overload-degraded answers (exits capped while the service's degradation
controller is engaged, see :mod:`repro.serve.service`) are never stored:
a later request at the same key expects uncapped exits, and a cache
poisoned with an early-checkpoint answer would silently serve it long
after the overload has passed.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["CachedResult", "LruResultCache", "image_digest"]


def image_digest(image: np.ndarray) -> str:
    """Content digest of one image (shape-qualified SHA-1 of its bytes)."""
    arr = np.ascontiguousarray(image, dtype=np.float64)
    hasher = hashlib.sha1(str(arr.shape).encode())
    hasher.update(arr.tobytes())
    return hasher.hexdigest()


@dataclass(frozen=True)
class CachedResult:
    """One cached per-image inference outcome.

    Attributes:
        scores: ``(n_classes,)`` class scores at the exit checkpoint.
        prediction: predicted class index.
        exit_checkpoint: stream cycles the original evaluation consumed.
        checkpoint_scores: ``(n_checkpoints, n_classes)`` class scores at
            every checkpoint of the evaluated schedule.
    """

    scores: np.ndarray
    prediction: int
    exit_checkpoint: int
    checkpoint_scores: np.ndarray


class LruResultCache:
    """Thread-safe LRU cache of per-image inference results.

    Args:
        capacity: maximum number of entries; ``0`` disables the cache
            (every lookup misses, every store is dropped).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ConfigurationError(
                f"cache capacity must be >= 0, got {capacity}"
            )
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, CachedResult] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @staticmethod
    def key(
        digest: str, backend: str, stream_length: int, options: tuple = ()
    ) -> tuple:
        """The cache key convention: (digest, backend, N, effective options).

        ``options`` is the request's effective-options token
        (:attr:`repro.config.ResolvedPredictOptions.cache_token`); the
        empty default keeps option-less callers (tests, ad-hoc tooling)
        on a distinct, stable key.
        """
        return (digest, backend, int(stream_length), tuple(options))

    def get(self, key: tuple) -> CachedResult | None:
        """Look up a result, refreshing its recency on a hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: tuple, result: CachedResult) -> None:
        """Store a result, evicting the least recently used beyond capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when untouched)."""
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def stats(self) -> dict:
        """Counters snapshot: size, capacity, hits, misses, hit rate."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / total if total else 0.0,
            }
