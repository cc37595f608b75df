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
execution backends, resolves per-request
:class:`~repro.config.PredictOptions` against the model's stream length,
and hands the micro-batching service and the worker fleet everything they
need (the fleet's worker processes rehydrate from the artifact path).

A session is the one way to score a model: the evaluation reports, the
examples and the ``python -m repro`` CLI all go through it, and new entry
points should not talk to mapper internals directly.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.api.artifact import ScModel
from repro.backends import ParallelBackend, backend_class, create_backend
from repro.config import FleetConfig, PredictOptions, ServiceConfig
from repro.errors import ConfigurationError
from repro.serve import FleetRouter, ScInferenceService, progressive_forward

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.backends.base import Backend
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

    :meth:`predict` and :meth:`evaluate` are safe to call from several
    threads: each cached backend runs one call at a time.  The instance
    :meth:`backend` returns is that shared one and is not.
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
        self._backends: dict[tuple, "Backend"] = {}
        # One lock per cached backend: a packed backend owns one workspace
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

    def backend(self, name: str | None = None, **options: object) -> "Backend":
        """A backend executing this session's model (cached per options).

        Args:
            name: registry name; ``None`` uses the session default.
            **options: backend constructor options, merged over the
                session-level defaults.
        """
        return self._executor(name, None, options)[0]

    def _executor(
        self, name: str | None, workers: int | None, options: dict
    ) -> tuple["Backend", "threading.Lock | nullcontext"]:
        """Cached backend ``name``, thread-sharded when ``workers > 1``,
        with the lock a caller holds while running it.

        The one place a ``workers`` request turns into an executor: the
        chosen backend rides along as the inner backend of a
        :class:`~repro.backends.ParallelBackend`, which rejects backends
        that are not ``batch_invariant``.
        """
        if self._closed:
            raise ConfigurationError("session is closed")
        name = name or self.backend_name
        merged = {**self.backend_options, **options}
        workers = max(1, workers or 1)

        def build() -> "Backend":
            if workers == 1:
                return create_backend(name, self.mapper, **merged)
            return ParallelBackend(
                self.mapper, workers, inner_backend=name, **merged
            )

        key = (name, workers, tuple(sorted(merged.items())))
        try:
            hash(key)
        except TypeError:
            # Unhashable option values: construct without caching; the
            # instance belongs to this call alone.
            return build(), nullcontext()
        with self._cache_lock:
            if key not in self._backends:
                self._backends[key] = build()
                self._backend_locks[key] = threading.Lock()
            return self._backends[key], self._backend_locks[key]

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
        policy.  ``deadline_ms`` only has meaning under the queueing
        service and is ignored here.

        Args:
            images: ``(batch, channels, height, width)`` images in
                ``[0, 1]`` (one ``(channels, height, width)`` image is
                promoted to a batch of one).
            options: per-request options; ``None`` is a plain full-stream
                forward pass.
            backend: registry name overriding the session default.
        """
        resolved = (options or PredictOptions()).resolve(self.stream_length)
        executor, lock = self._executor(backend, resolved.workers, {})
        if resolved.explicit_schedule and not executor.progressive:
            raise ConfigurationError(
                f"backend {executor.name!r} is not progressive: per-request "
                "stream lengths / checkpoint schedules need stream-prefix "
                "evaluation (pick a backend whose 'progressive' flag is set)"
            )
        with lock:
            result = progressive_forward(
                executor,
                images,
                resolved.checkpoints if resolved.explicit_schedule else None,
                early_exit=resolved.early_exit,
            )
        return PredictResult(
            scores=result.scores,
            predictions=result.predictions,
            exit_checkpoints=result.exit_checkpoints,
            stream_length=resolved.stream_length,
            checkpoints=result.checkpoints,
            checkpoint_scores=result.checkpoint_scores,
            backend=executor.name,
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
        executor, lock = self._executor(backend, workers, options)
        with lock:
            accuracy = executor.accuracy(images, labels)
        return InferenceResult(
            accuracy, len(labels), self.stream_length, executor.name
        )

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
        counters merged across every backend the session has built, plus
        each backend's workspace-arena statistics.
        """
        from repro.obs import merge_kernel_snapshots

        backends = list(self._backends.values())
        workspaces = []
        for executor in backends:
            stats = executor.workspace_stats()
            if stats is not None:
                workspaces.append({"backend": executor.name, **stats})
        return {
            "kernels": merge_kernel_snapshots(
                executor.kernel_snapshot() for executor in backends
            ),
            "workspaces": workspaces,
        }

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release every cached backend (thread pools, arenas)."""
        if self._closed:
            return
        self._closed = True
        for executor in self._backends.values():
            executor.close()
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
