"""Execution-backend protocol for SC network inference.

A :class:`Backend` turns a mapped network (a
:class:`~repro.nn.sc_layers.ScNetworkMapper`) into class scores for a batch
of images.  What used to be ad-hoc methods on the inference engine --
float evaluation, the fast statistical SC model, the bit-exact block
simulations -- are now interchangeable backends behind one interface, so
reports, examples and benchmarks pick an execution strategy by name
through the registry (:mod:`repro.backends.registry`) instead of calling
mapper internals.

Capability flags describe what a backend guarantees:

* ``bit_exact`` -- the scores come from simulating actual bit streams
  through the block implementations (all ``bit-exact-*`` backends produce
  *identical* scores, they only differ in speed).
* ``progressive`` -- the backend can evaluate class scores at
  intermediate stream-length checkpoints (:meth:`Backend.forward_partial`),
  which is what the progressive-precision early exit of the serving layer
  (:mod:`repro.serve`) is built on.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from repro.errors import ConfigurationError, EncodingError, ShapeError
from repro.nn.sc_layers import ScNetworkMapper

__all__ = ["Backend"]


class Backend(abc.ABC):
    """One execution strategy for running a mapped network.

    Subclasses are listed by name in the registry table
    (:mod:`repro.backends.registry`) and constructed from the mapper they
    execute alone.

    Args:
        mapper: the SC network mapper holding the trained network, stream
            length, weight precision and seed.
    """

    #: Registry key of the backend (e.g. ``"bit-exact-packed"``).
    name: ClassVar[str]

    #: One-line description shown in registry listings.
    description: ClassVar[str] = ""

    #: True when scores come from simulating actual bit streams.
    bit_exact: ClassVar[bool] = False

    #: True when the backend implements :meth:`forward_partial` (scores at
    #: intermediate stream-length checkpoints for progressive early exit).
    progressive: ClassVar[bool] = False

    #: True when each image's scores are independent of which other images
    #: share its batch (``forward(images)[i] == forward(images[i:i+1])[0]``
    #: for every ``i``).  This is what makes a backend safe to shard
    #: across threads (``workers`` in :class:`repro.api.Session`) and to
    #: micro-batch transparently (:mod:`repro.serve`).  All bit-exact
    #: backends hold it exactly, by construction (stream draws are shared
    #: across the batch); ``float`` holds it only to floating-point
    #: rounding (NumPy multiplies a one-image batch through a
    #: matrix-vector path); ``sc-fast`` does not hold it (its injected
    #: decoding noise is drawn over the whole batch tensor at once).
    batch_invariant: ClassVar[bool] = False

    def __init__(self, mapper: ScNetworkMapper) -> None:
        self.mapper = mapper

    @property
    def stream_length(self) -> int:
        """Stochastic stream length ``N`` of the underlying mapper."""
        return self.mapper.stream_length

    @staticmethod
    def _check_images(images: np.ndarray) -> np.ndarray:
        """Validate an image batch once, before any kernel touches it.

        Every backend used to fail on malformed input deep inside its
        kernels (a broadcast error in the SNG, a reshape in ``im2col``);
        this shared helper turns those into one clear, early error.

        Args:
            images: ``(batch, channels, height, width)`` array in
                ``[0, 1]``; a single ``(channels, height, width)`` image
                is also accepted and promoted to a batch of one.

        Returns:
            ``float64`` array of shape ``(batch, channels, height,
            width)``.

        Raises:
            ShapeError: when the array is not 3- or 4-dimensional.
            EncodingError: when the dtype is not numeric or values fall
                outside the unipolar SNG input domain ``[0, 1]``.
        """
        arr = np.asarray(images)
        if arr.dtype.kind not in "fiub":
            raise EncodingError(
                f"images must be a numeric array, got dtype {arr.dtype}"
            )
        arr = arr.astype(np.float64, copy=False)
        if arr.ndim == 3:
            arr = arr[None]
        if arr.ndim != 4:
            raise ShapeError(
                "expected (batch, channels, height, width) images "
                f"(or one (channels, height, width) image), got shape "
                f"{np.shape(images)}"
            )
        if arr.size:
            low, high = float(arr.min()), float(arr.max())
            # Negated comparison so NaN (for which both `low < 0` and
            # `high > 1` are false) also fails the check.
            if not (low >= 0.0 and high <= 1.0):
                raise EncodingError(
                    f"image values must lie in [0, 1] (the SNG input "
                    f"domain), got range [{low:.4g}, {high:.4g}]"
                )
        return arr

    def _check_checkpoints(self, checkpoints) -> tuple[int, ...]:
        """Validate a stream-length checkpoint schedule.

        Checkpoints must be strictly increasing and lie inside ``[1, N]``.
        The schedule may stop *short* of the full stream length -- that is
        how per-request reduced stream lengths
        (:class:`repro.config.PredictOptions`) are evaluated -- but the
        exact-equality guarantee ``forward_partial(...)[-1] == forward()``
        only holds when the final checkpoint equals ``N`` (which the
        serving-layer schedules always arrange for full-length requests).
        """
        points = tuple(int(p) for p in checkpoints)
        n = self.stream_length
        if not points:
            raise ConfigurationError("at least one checkpoint is required")
        if any(p < 1 or p > n for p in points):
            raise ConfigurationError(
                f"checkpoints must lie in [1, {n}], got {points}"
            )
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ConfigurationError(
                f"checkpoints must be strictly increasing, got {points}"
            )
        return points

    @abc.abstractmethod
    def forward(self, images: np.ndarray) -> np.ndarray:
        """Class scores for a batch of images.

        Args:
            images: ``(batch, channels, height, width)`` images in
                ``[0, 1]``.

        Returns:
            ``(batch, n_classes)`` class scores.
        """

    def forward_partial(
        self, images: np.ndarray, checkpoints
    ) -> np.ndarray:
        """Class scores at intermediate stream-length checkpoints.

        Progressive backends (``progressive = True``) override this to
        evaluate the scores a request would have seen had the streams
        stopped after ``P`` cycles, for each checkpoint ``P`` -- the
        primitive behind the early-exit serving path
        (:func:`repro.serve.progressive_forward`).  The contract:
        checkpoints are validated by :meth:`_check_checkpoints` (strictly
        increasing, inside ``[1, N]``), and whenever the final checkpoint
        is the full stream length ``N`` its scores equal :meth:`forward`
        exactly.  Schedules stopping short of ``N`` evaluate a request at
        a reduced effective stream length
        (:class:`repro.config.PredictOptions`).

        Args:
            images: ``(batch, channels, height, width)`` images in
                ``[0, 1]``.
            checkpoints: increasing stream-length checkpoints (e.g.
                ``(N // 8, N // 4, N // 2, N)``).

        Returns:
            ``(n_checkpoints, batch, n_classes)`` class scores.

        Raises:
            ConfigurationError: when the backend is not progressive.
        """
        raise ConfigurationError(
            f"backend {self.name!r} does not support partial-stream "
            "(progressive) evaluation; pick a backend whose 'progressive' "
            "capability flag is set"
        )

    def kernel_snapshot(self) -> dict:
        """Per-kernel, per-tier invocation counters of this backend.

        Backends with an instrumented kernel seam (the packed data
        plane, see :mod:`repro.obs.counters`) expose a ``counters``
        attribute; everything else reports empty.

        Returns:
            ``{kernel: {tier: {"calls", "seconds", "bytes"}}}``.
        """
        counters = getattr(self, "counters", None)
        if counters is None:
            return {}
        return counters.snapshot()

    def workspace_stats(self) -> dict | None:
        """Buffer-arena statistics (:meth:`repro.workspace.Workspace.stats`).

        ``None`` for backends without a workspace arena.
        """
        workspace = getattr(self, "workspace", None)
        if workspace is None:
            return None
        return workspace.stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"stream_length={self.stream_length})"
        )
