"""Thread-sharded execution: one batch, many in-process replicas.

The SC pipeline is embarrassingly parallel across images: every bit-exact
backend draws its stream randomness from tensors *shared across the
batch*, so image ``i``'s scores never depend on which other images it was
batched with (the ``batch_invariant`` capability flag).
:class:`ParallelBackend` exploits exactly that invariance: it splits an
image batch into contiguous shards, runs each shard on a thread pool over
a bounded pool of in-process inner replicas, and joins the shards' scores
in order -- bit-identical to running the inner backend on the whole
batch, asserted by the unit tests and by ``bench_perf.py``.

Threads overlap because the compiled kernel tier of ``bit-exact-native``
releases the GIL for its hot loops; on the NumPy tier the shards still
answer bit-identically, they just overlap less.  Process isolation is the
job of :class:`~repro.serve.fleet.FleetRouter`, not of this wrapper.

The wrapper is not a registry entry: ``workers`` is the one way to ask
for it (:attr:`repro.config.PredictOptions.workers`,
``Session.evaluate(workers=...)`` and ``--workers`` on ``python -m repro
predict`` / ``evaluate``), which wraps the chosen backend.  It implements
both ``forward`` and ``forward_partial`` and mirrors the inner backend's
capability flags and registry name.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backends.base import Backend
from repro.backends.registry import backend_class, create_backend
from repro.errors import ConfigurationError
from repro.nn.sc_layers import ScNetworkMapper
from repro.obs.counters import merge_kernel_snapshots

__all__ = ["ParallelBackend"]


class ParallelBackend(Backend):
    """Thread-sharded wrapper around a batch-invariant inner backend.

    Args:
        mapper: the SC network mapper every replica executes.
        workers: shard count, and the bound on concurrent replicas.
        inner_backend: registry name of the backend each replica runs
            (default ``"bit-exact-packed"``).  Named to avoid colliding
            with the ``backend=`` keyword of registry-forwarding call
            sites.  It must advertise ``batch_invariant`` -- sharding a
            batch across replicas is only score-preserving when per-image
            scores do not depend on batch composition.
        **backend_options: forwarded to every inner-replica constructor
            (e.g. ``position_chunk``).

    Every call -- each shard, and a batch too small to shard -- runs on a
    replica leased from a pool of at most ``workers``: the first is built
    eagerly (so bad options fail here), the rest on demand.  Each owns its
    own workspace arena, which is not thread-safe, so a replica never
    serves two calls at once.  :meth:`close` is idempotent, and any
    ``forward`` / ``forward_partial`` after it raises
    :class:`~repro.errors.ConfigurationError` (the :meth:`Backend.close`
    contract).
    """

    batch_invariant = True

    def __init__(
        self,
        mapper: ScNetworkMapper,
        workers: int,
        inner_backend: str = "bit-exact-packed",
        **backend_options: object,
    ) -> None:
        super().__init__(mapper)
        inner_cls = backend_class(inner_backend)
        if not inner_cls.batch_invariant:
            raise ConfigurationError(
                f"backend {inner_backend!r} is not batch-invariant: sharding "
                "its batches across workers would change per-image scores"
            )
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        # The wrapper only changes *where* the batch runs, not what the
        # scores mean: name and capabilities follow the inner backend, so
        # e.g. the early-exit gate never sends a non-progressive inner
        # into forward_partial.
        self.name = inner_cls.name
        self.bit_exact = inner_cls.bit_exact
        self.stochastic = inner_cls.stochastic
        self.packed_data_plane = inner_cls.packed_data_plane
        self.progressive = inner_cls.progressive
        self.workers = int(workers)
        self.inner_backend = inner_backend
        self.backend_options = dict(backend_options)
        self._closed = False
        self._thread_pool: ThreadPoolExecutor | None = None
        self._replicas = [
            create_backend(inner_backend, mapper, **backend_options)
        ]
        self._replica_queue: queue.SimpleQueue = queue.SimpleQueue()
        self._replica_queue.put(self._replicas[0])
        self._replica_lock = threading.Lock()

    # -- shard plumbing --------------------------------------------------------

    def _plan_shards(self, batch: int) -> list[tuple[int, int]]:
        """Contiguous, near-equal shards: ``[(start, stop), ...]``."""
        bounds = np.linspace(0, batch, min(self.workers, batch) + 1).astype(int)
        return [
            (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
        ]

    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        with self._replica_lock:
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-shard",
                )
            return self._thread_pool

    def _lease_replica(self) -> Backend:
        """Borrow a replica, growing the pool lazily up to ``workers``.

        Once the pool is full, leases block until a running call returns
        one.  Concurrent ``forward`` calls therefore share a bounded
        replica pool instead of each allocating ``workers`` arenas.
        """
        try:
            return self._replica_queue.get_nowait()
        except queue.Empty:
            pass
        with self._replica_lock:
            if len(self._replicas) < self.workers:
                replica = create_backend(
                    self.inner_backend, self.mapper, **self.backend_options
                )
                self._replicas.append(replica)
                return replica
        return self._replica_queue.get()

    def _call(
        self, images: np.ndarray, checkpoints: tuple[int, ...] | None
    ) -> np.ndarray:
        """Score one shard on a leased replica."""
        replica = self._lease_replica()
        try:
            if checkpoints is None:
                return replica.forward(images)
            return replica.forward_partial(images, checkpoints)
        finally:
            self._replica_queue.put(replica)

    def _run(
        self, images: np.ndarray, checkpoints: tuple[int, ...] | None
    ) -> np.ndarray:
        """Shard ``images`` across the thread pool (one shard runs inline).

        Shards are contiguous, so joining their scores along the batch
        axis -- second to last, after any checkpoint axis -- restores the
        input order.  Worker exceptions propagate through
        ``future.result()``.
        """
        shards = self._plan_shards(images.shape[0])
        if len(shards) <= 1:
            return self._call(images, checkpoints)
        pool = self._ensure_thread_pool()
        futures = [
            pool.submit(self._call, images[start:stop], checkpoints)
            for start, stop in shards
        ]
        return np.concatenate([f.result() for f in futures], axis=-2)

    def _ensure_usable(self) -> None:
        if self._closed:
            raise ConfigurationError(
                f"backend {self.name!r} is closed; build a new instance "
                "instead of reusing a closed one"
            )

    # -- Backend interface -----------------------------------------------------

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Class scores, bit-identical to the inner backend's.

        Args:
            images: ``(batch, channels, height, width)`` images in
                ``[0, 1]``.

        Returns:
            ``(batch, n_classes)`` class scores.
        """
        self._ensure_usable()
        return self._run(self._check_images(images), None)

    def forward_partial(self, images: np.ndarray, checkpoints) -> np.ndarray:
        """Checkpoint scores, bit-identical to the inner backend's."""
        self._ensure_usable()
        points = self._check_checkpoints(checkpoints)
        return self._run(self._check_images(images), points)

    def kernel_snapshot(self) -> dict:
        """Kernel counters aggregated across every replica."""
        with self._replica_lock:
            replicas = list(self._replicas)
        return merge_kernel_snapshots(
            replica.kernel_snapshot() for replica in replicas
        )

    def workspace_stats(self) -> dict | None:
        """Arena stats of the first replica (if it has an arena)."""
        return self._replicas[0].workspace_stats()

    def close(self) -> None:
        """Shut the thread pool down (idempotent; use-after-close raises)."""
        self._closed = True
        pool, self._thread_pool = self._thread_pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        for replica in self._replicas:
            replica.close()

    def __enter__(self) -> "ParallelBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(inner={self.inner_backend!r}, "
            f"workers={self.workers}, stream_length={self.stream_length})"
        )
