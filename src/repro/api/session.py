"""`Session`: the unified load-and-serve facade of the public API.

One object, three verbs::

    session = Session.from_artifact("artifacts/snn", backend="bit-exact-packed")
    result  = session.predict(images, PredictOptions(early_exit=True))
    report  = session.evaluate(images, labels)
    with session.serve() as service:
        future = service.submit(image, PredictOptions(deadline_ms=5.0))

A session wraps one :class:`~repro.api.artifact.ScModel` (loaded from an
artifact or built from a freshly trained network), owns the
:class:`~repro.nn.sc_layers.ScNetworkMapper` and a cache of constructed
execution backends (one replica per ``workers`` shard), resolves per-request
:class:`~repro.config.PredictOptions` against the model's stream length,
and hands the micro-batching service and the worker fleet everything they
need (the fleet's worker processes rehydrate from the artifact path).

A session is the one way to score a model: the evaluation reports, the
examples and the ``python -m repro`` CLI all go through it, and new entry
points should not talk to mapper internals directly.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.api.artifact import ScModel
from repro.backends import Backend, backend_class, create_backend
from repro.config import FleetConfig, PredictOptions, ServiceConfig
from repro.errors import ConfigurationError
from repro.serve import FleetRouter, ScInferenceService, progressive_forward

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.nn.layers import Network
    from repro.nn.sc_layers import ScNetworkMapper

__all__ = ["InferenceResult", "PredictResult", "Session"]


@dataclass(frozen=True)
class InferenceResult:
    """Accuracy summary of one :meth:`Session.evaluate` call.

    Attributes:
        accuracy: fraction of correctly classified images.
        n_images: number of images evaluated.
        stream_length: stochastic stream length used.
        mode: name of the execution backend that produced the scores.
    """

    accuracy: float
    n_images: int
    stream_length: int
    mode: str


@dataclass(frozen=True)
class PredictResult:
    """Outcome of one :meth:`Session.predict` call.

    Attributes:
        scores: ``(batch, n_classes)`` class scores at each image's exit
            checkpoint (the full effective stream when no early exit
            fired).
        predictions: ``(batch,)`` predicted class indices.
        exit_checkpoints: ``(batch,)`` stream cycles each image consumed.
        stream_length: effective stream length the request ran at.
        checkpoints: the evaluated checkpoint schedule (``(N,)`` for a
            plain full-stream forward pass).
        checkpoint_scores: ``(n_checkpoints, batch, n_classes)`` scores at
            every checkpoint (``scores[None]`` after a plain full-stream
            forward pass).
        backend: registry name of the backend that produced the scores.
    """

    scores: np.ndarray
    predictions: np.ndarray
    exit_checkpoints: np.ndarray
    stream_length: int
    checkpoints: tuple[int, ...]
    checkpoint_scores: np.ndarray
    backend: str


class Session:
    """Load-and-serve facade over one trained SC model.

    Args:
        model: the model to execute.
        backend: default registry backend name (validated eagerly so a
            typo fails at construction, not at first predict).
        artifact_path: artifact directory this session was loaded from
            (``None`` for in-memory models); the worker processes of
            :meth:`serve_fleet` rehydrate from it.
        **backend_options: default constructor options for every backend
            this session builds (e.g. ``position_chunk``).

    The session caches its backends per name, options and replica index.
    :meth:`predict` and :meth:`evaluate` are safe to call from several
    threads: each cached replica runs one call at a time, and a
    ``workers`` call holds only the lock of the replica each shard runs
    on.  The instance :meth:`backend` returns is the shared replica 0 and
    is not.
    """

    def __init__(
        self,
        model: ScModel,
        backend: str = "bit-exact-packed",
        artifact_path: str | Path | None = None,
        **backend_options: object,
    ) -> None:
        backend_class(backend)  # fail fast on unknown names
        self.model = model
        self.backend_name = backend
        self.artifact_path = Path(artifact_path) if artifact_path else None
        self.backend_options = dict(backend_options)
        # Keyed (name, replica index, options).
        self._backends: dict[tuple, Backend] = {}
        # One lock per cached replica: a packed backend owns one workspace
        # and must not run two forwards at once.
        self._backend_locks: dict[tuple, threading.Lock] = {}
        self._cache_lock = threading.Lock()
        self._closed = False

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        backend: str = "bit-exact-packed",
        **backend_options: object,
    ) -> "Session":
        """Open a session on a saved model artifact.

        Args:
            path: artifact directory written by
                :meth:`~repro.api.artifact.ScModel.save`.
            backend: default execution backend for this session.
            **backend_options: default backend constructor options.
        """
        model = ScModel.load(path)
        return cls(model, backend=backend, artifact_path=path, **backend_options)

    @classmethod
    def from_network(
        cls,
        network: "Network",
        weight_bits: int = 10,
        stream_length: int = 1024,
        seed: int = 2019,
        backend: str = "bit-exact-packed",
        metadata: dict | None = None,
        **backend_options: object,
    ) -> "Session":
        """Open a session on a freshly trained in-memory network."""
        model = ScModel(
            network,
            weight_bits=weight_bits,
            stream_length=stream_length,
            seed=seed,
            metadata=metadata,
        )
        return cls(model, backend=backend, **backend_options)

    # -- model plumbing --------------------------------------------------------

    @property
    def mapper(self) -> "ScNetworkMapper":
        """The SC network mapper executing this session's model."""
        return self.model.mapper()

    @property
    def stream_length(self) -> int:
        """Full stochastic stream length ``N`` of the model."""
        return self.model.stream_length

    def save(self, path: str | Path) -> Path:
        """Export the session's model as an artifact (see :class:`ScModel`)."""
        saved = self.model.save(path)
        if self.artifact_path is None:
            self.artifact_path = saved
        return saved

    def backend(self, name: str | None = None, **options: object) -> Backend:
        """A backend executing this session's model (cached per options).

        It is replica 0 of ``name``: the backend that unsharded
        :meth:`predict` and :meth:`evaluate` calls run on.

        Args:
            name: registry name; ``None`` uses the session default.
            **options: backend constructor options, merged over the
                session-level defaults.
        """
        return self._replica(name, options, 0)[0]

    def _replica(
        self, name: str | None, options: dict, index: int
    ) -> tuple[Backend, "threading.Lock | nullcontext"]:
        """Cached replica ``index`` of backend ``name``, with the lock a
        caller holds while running it.

        Replica 0 serves unsharded calls; a ``workers`` call runs its
        shard ``i`` on replica ``i``.  Each replica owns its own
        workspace arena.
        """
        if self._closed:
            raise ConfigurationError("session is closed")
        name = name or self.backend_name
        merged = {**self.backend_options, **options}
        key = (name, index, tuple(sorted(merged.items())))
        try:
            hash(key)
        except TypeError:
            # Unhashable option values: construct without caching; the
            # instance belongs to this call alone.
            return create_backend(name, self.mapper, **merged), nullcontext()
        with self._cache_lock:
            if key not in self._backends:
                self._backends[key] = create_backend(name, self.mapper, **merged)
                self._backend_locks[key] = threading.Lock()
            return self._backends[key], self._backend_locks[key]

    def _sharded(
        self,
        name: str | None,
        options: dict,
        workers: int | None,
        images: np.ndarray,
        run: Callable[[Backend, np.ndarray], object],
    ) -> list:
        """``run(replica, shard)`` over contiguous shards of ``images``.

        The batch is cut into ``min(workers, batch)`` near-equal shards;
        shard ``i`` runs on replica ``i`` under that replica's lock, shard
        0 on the calling thread and the rest on a pool made for this
        call.  The compiled kernels release the GIL, so the shards
        overlap.  Sharding only moves where an image runs, which is why it
        needs a ``batch_invariant`` backend.

        Returns:
            The shards' results, in batch order.
        """
        name = name or self.backend_name
        workers = 1 if workers is None else workers
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if workers > 1 and not backend_class(name).batch_invariant:
            raise ConfigurationError(
                f"backend {name!r} is not batch-invariant: sharding "
                "its batches across workers would change per-image scores"
            )
        images = Backend._check_images(images)
        count = max(1, min(workers, images.shape[0]))
        bounds = np.linspace(0, images.shape[0], count + 1).astype(int)
        jobs = [
            (self._replica(name, options, i), images[start:stop])
            for i, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]

        def call(job):
            (replica, lock), shard = job
            with lock:
                return run(replica, shard)

        if count == 1:
            return [call(jobs[0])]
        with ThreadPoolExecutor(
            count - 1, thread_name_prefix="repro-shard"
        ) as pool:
            rest = [pool.submit(call, job) for job in jobs[1:]]
            return [call(jobs[0])] + [future.result() for future in rest]

    # -- inference -------------------------------------------------------------

    def predict(
        self,
        images: np.ndarray,
        options: PredictOptions | None = None,
        backend: str | None = None,
    ) -> PredictResult:
        """Class scores and predictions under per-request options.

        Resolution: ``options.workers > 1`` shards the batch across that
        many threads (the backend must be ``batch_invariant``); an
        explicit per-request ``stream_length`` / ``checkpoints`` schedule
        is read from stream prefixes (requires a progressive backend);
        ``early_exit`` applies the serving layer's stability + margin
        policy, image by image.  ``deadline_ms`` only has meaning under
        the queueing service and is ignored here.

        Args:
            images: ``(batch, channels, height, width)`` images in
                ``[0, 1]`` (one ``(channels, height, width)`` image is
                promoted to a batch of one).
            options: per-request options; ``None`` is a plain full-stream
                forward pass.
            backend: registry name overriding the session default.
        """
        options = options or PredictOptions()
        resolved = options.resolve(self.stream_length)
        cls = backend_class(backend or self.backend_name)
        if resolved.explicit_schedule and not cls.progressive:
            raise ConfigurationError(
                f"backend {cls.name!r} is not progressive: per-request "
                "stream lengths / checkpoint schedules need stream-prefix "
                "evaluation (pick a backend whose 'progressive' flag is set)"
            )
        parts = self._sharded(
            backend,
            {},
            options.workers,
            images,
            lambda replica, shard: progressive_forward(
                replica,
                shard,
                resolved.checkpoints if resolved.explicit_schedule else None,
                early_exit=resolved.early_exit,
            ),
        )
        return PredictResult(
            scores=np.concatenate([p.scores for p in parts]),
            predictions=np.concatenate([p.predictions for p in parts]),
            exit_checkpoints=np.concatenate(
                [p.exit_checkpoints for p in parts]
            ),
            stream_length=resolved.stream_length,
            checkpoints=parts[0].checkpoints,
            checkpoint_scores=np.concatenate(
                [p.checkpoint_scores for p in parts], axis=1
            ),
            backend=cls.name,
        )

    def evaluate(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        backend: str | None = None,
        max_images: int | None = None,
        workers: int | None = None,
        **options: object,
    ) -> InferenceResult:
        """Accuracy of the model under the named execution backend.

        Args:
            images: ``(batch, channels, height, width)`` images in
                ``[0, 1]``.
            labels: integer class labels.
            backend: registry name; ``None`` uses the session default.
            max_images: optional cap on the number of images evaluated
                (bounds the memory of the bit-exact backends).
            workers: shard the evaluation across this many threads (the
                backend must be ``batch_invariant``).
            **options: forwarded to the backend constructor.

        Returns:
            An :class:`InferenceResult` whose ``mode`` is the executing
            backend's name.
        """
        if max_images is not None and max_images < 1:
            raise ConfigurationError("max_images must be >= 1")
        images = np.asarray(images)[:max_images]
        labels = np.asarray(labels)[:max_images]
        parts = self._sharded(
            backend,
            options,
            workers,
            images,
            lambda replica, shard: replica.predict(shard),
        )
        accuracy = float((np.concatenate(parts) == labels).mean())
        mode = backend_class(backend or self.backend_name).name
        return InferenceResult(accuracy, len(labels), self.stream_length, mode)

    def serve(
        self,
        config: ServiceConfig | None = None,
        **backend_options: object,
    ) -> ScInferenceService:
        """Stand up the micro-batching inference service on this model.

        Args:
            config: service knobs; ``None`` serves the session's default
                backend with the :class:`~repro.config.ServiceConfig`
                defaults.
            **backend_options: forwarded to every worker replica's
                constructor.

        Returns:
            A running :class:`~repro.serve.ScInferenceService` (use as a
            context manager or call ``close()``).
        """
        if self._closed:
            raise ConfigurationError("session is closed")
        config = config or ServiceConfig(backend=self.backend_name)
        return ScInferenceService(
            self.mapper, config, **{**self.backend_options, **backend_options}
        )

    def serve_fleet(self, config: FleetConfig | None = None) -> FleetRouter:
        """Stand up a supervised multi-process worker fleet on this model.

        Every worker process rehydrates its own bit-exact service from
        this session's artifact, so the session must be artifact-backed:
        open it with :meth:`from_artifact`, or :meth:`save` an in-memory
        model first.

        Args:
            config: fleet knobs (:class:`~repro.config.FleetConfig`);
                ``None`` spawns two workers running the session's default
                backend.

        Returns:
            A running :class:`~repro.serve.FleetRouter` (use as a context
            manager or call ``close()`` for a graceful drain).
        """
        if self._closed:
            raise ConfigurationError("session is closed")
        if self.artifact_path is None:
            raise ConfigurationError(
                "fleet serving needs a shared artifact for workers to "
                "rehydrate from: save() this session's model first (or "
                "open it with Session.from_artifact)"
            )
        if config is None:
            config = FleetConfig(
                service=ServiceConfig(backend=self.backend_name)
            )
        return FleetRouter(self.artifact_path, config)

    # -- observability ---------------------------------------------------------

    def obs_snapshot(self) -> dict:
        """Kernel-tier counters and arena stats of this session's backends.

        The session-level analogue of
        ``ScInferenceService.snapshot()["kernels"]`` for direct
        ``predict`` / ``evaluate`` use: per-kernel, per-tier invocation
        counters merged across every backend replica the session has
        built, plus each replica's workspace-arena statistics, tagged
        with its backend name and replica index.
        """
        from repro.obs import merge_kernel_snapshots

        cached = list(self._backends.items())
        workspaces = []
        for (_, replica, _), backend in cached:
            stats = backend.workspace_stats()
            if stats is not None:
                workspaces.append(
                    {"backend": backend.name, "replica": replica, **stats}
                )
        return {
            "kernels": merge_kernel_snapshots(
                backend.kernel_snapshot() for _, backend in cached
            ),
            "workspaces": workspaces,
        }

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drop every cached backend; later calls raise."""
        if self._closed:
            return
        self._closed = True
        self._backends.clear()
        self._backend_locks.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        source = (
            f"artifact={str(self.artifact_path)!r}"
            if self.artifact_path
            else "in-memory"
        )
        return (
            f"Session(network={self.model.network.name!r}, "
            f"backend={self.backend_name!r}, "
            f"stream_length={self.stream_length}, {source})"
        )
