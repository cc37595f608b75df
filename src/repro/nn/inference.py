"""High-level SC inference engine (a thin wrapper over `repro.api.Session`).

:class:`ScInferenceEngine` is the historical training-side entry point:
give it a trained float network and evaluate it under any registered
execution backend -- ``engine.evaluate(images, labels,
backend="bit-exact-packed")``.  Since the public API landed it delegates
everything to a :class:`~repro.api.Session` (the load-and-serve facade);
new code should use sessions directly -- ``Session.from_network`` for
freshly trained networks, ``Session.from_artifact`` for saved models --
and :meth:`ScInferenceEngine.session` / :meth:`ScInferenceEngine.save`
bridge existing engine users onto that path.  The historical
mode-specific methods (``evaluate_float``, ``evaluate_sc_fast``,
``evaluate_sc_bit_exact``) remain as thin wrappers, and the engine still
exposes the block inventory used for the network-level hardware roll-up
(Table 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import default_config
from repro.errors import ConfigurationError
from repro.nn.layers import Network
from repro.nn.sc_layers import LayerInventory, ScNetworkMapper

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from pathlib import Path

    from repro.api.session import Session
    from repro.backends.base import Backend

__all__ = ["InferenceResult", "ScInferenceEngine"]


@dataclass(frozen=True)
class InferenceResult:
    """Accuracy summary of one evaluation.

    Attributes:
        accuracy: fraction of correctly classified images.
        n_images: number of images evaluated.
        stream_length: stochastic stream length used.
        mode: name of the execution backend that produced the scores
            (``"float"``, ``"sc-fast"``, ``"bit-exact-packed"``, ...; the
            legacy ``evaluate_sc_bit_exact`` wrapper reports its
            historical ``"sc-bit-exact"`` label).
    """

    accuracy: float
    n_images: int
    stream_length: int
    mode: str


class ScInferenceEngine:
    """Evaluate a trained network through pluggable execution backends.

    Args:
        network: trained float network.
        weight_bits: stored weight precision for SC conversion.
        stream_length: stochastic stream length ``N``.
        seed: randomness seed for stream generation and noise.
        default_backend: registry name used when :meth:`evaluate` is called
            without an explicit backend; ``None`` falls back to
            :attr:`repro.config.ExperimentConfig.default_backend`.
    """

    def __init__(
        self,
        network: Network,
        weight_bits: int = 10,
        stream_length: int = 1024,
        seed: int = 2019,
        default_backend: str | None = None,
    ) -> None:
        if stream_length <= 0:
            raise ConfigurationError("stream_length must be positive")
        # Imported lazily: repro.api sits above the nn layer (its Session
        # imports the backends and serving packages, which import this
        # package), so a module-level import here would be circular.
        from repro.api.session import Session

        name = default_backend or default_config().default_backend
        self._session = Session.from_network(
            network,
            weight_bits=weight_bits,
            stream_length=stream_length,
            seed=seed,
            backend=name,  # fails fast on unknown names
        )
        self.network = network
        self.mapper = self._session.mapper
        self.stream_length = int(stream_length)
        self.default_backend = name

    # -- session facade --------------------------------------------------------

    @property
    def session(self) -> "Session":
        """The :class:`~repro.api.Session` this engine delegates to."""
        return self._session

    def save(self, path: "str | Path") -> "Path":
        """Export the engine's model as a versioned artifact directory.

        The bridge from training-side code onto the train-once /
        deploy-forever path: the artifact reloads (in any process) into a
        bit-identical mapper via :meth:`repro.api.Session.from_artifact`.
        """
        return self._session.save(path)

    def backend(self, name: str | None = None, **options: object) -> Backend:
        """An execution backend for this engine's mapper (session-cached).

        Args:
            name: registry name; ``None`` uses :attr:`default_backend`.
            **options: backend-specific constructor options (e.g.
                ``inject_noise``, ``position_chunk``).
        """
        return self._session.backend(name or self.default_backend, **options)

    def evaluate(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        backend: str | None = None,
        max_images: int | None = None,
        **options: object,
    ) -> InferenceResult:
        """Accuracy of the network under the named execution backend.

        Args:
            images: ``(batch, channels, height, width)`` images in ``[0, 1]``.
            labels: integer class labels.
            backend: registry name; ``None`` uses :attr:`default_backend`.
            max_images: optional cap on the number of images evaluated
                (bounds the memory of the bit-exact backends).
            **options: forwarded to the backend constructor.

        Returns:
            The accuracy summary; ``mode`` is the backend name.
        """
        return self._session.evaluate(
            images,
            labels,
            backend=backend or self.default_backend,
            max_images=max_images,
            **options,
        )

    # -- historical mode-specific wrappers --------------------------------------

    def evaluate_float(self, images: np.ndarray, labels: np.ndarray) -> InferenceResult:
        """Software (floating-point) accuracy of the trained network."""
        return self.evaluate(images, labels, backend="float")

    def evaluate_sc_fast(
        self, images: np.ndarray, labels: np.ndarray, inject_noise: bool = True
    ) -> InferenceResult:
        """Accuracy under the fast statistical SC model."""
        return self.evaluate(
            images, labels, backend="sc-fast", inject_noise=inject_noise
        )

    def evaluate_sc_bit_exact(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        max_images: int = 32,
        position_chunk: int | None = None,
        backend: str = "bit-exact-packed",
    ) -> InferenceResult:
        """Accuracy of a bit-exact block simulation on a batch of images.

        All ``bit-exact-*`` backends produce identical scores; ``backend``
        selects the implementation speed (``"bit-exact-legacy"`` is the
        per-image oracle).  Reports the historical ``"sc-bit-exact"`` mode
        label.
        """
        result = self.evaluate(
            images,
            labels,
            backend=backend,
            max_images=max_images,
            position_chunk=position_chunk,
        )
        return InferenceResult(
            result.accuracy, result.n_images, result.stream_length, "sc-bit-exact"
        )

    def classify_bit_exact(self, image: np.ndarray) -> tuple[int, np.ndarray]:
        """Bit-exact class prediction and scores for a single image."""
        scores = self.backend("bit-exact-packed").forward(image)[0]
        return int(np.argmax(scores)), scores

    def layer_inventories(
        self, input_shape: tuple[int, int, int] = (1, 28, 28)
    ) -> list[LayerInventory]:
        """Per-layer block inventory (for the hardware roll-up)."""
        return self.mapper.layer_inventories(input_shape)
