"""Progressive-precision early exit over stream-length checkpoints.

Stochastic computing has a property conventional binary arithmetic lacks:
**precision grows monotonically with stream length**.  A request does not
need to wait for all ``N`` cycles -- once the categorization scores have
stabilised, the remaining cycles only narrow an already-decided vote.
This module turns that into a serving policy:

1. a progressive backend evaluates class scores at increasing
   stream-length checkpoints (``N/8, N/4, N/2, N`` by default) via
   :meth:`~repro.backends.base.Backend.forward_partial` -- for the packed
   bit-exact backend a checkpoint is literally a prefix popcount over the
   packed output words, for the fast statistical backend it is the
   statistical model at the checkpoint's stream length;
2. a request **exits early** at the first checkpoint where the predicted
   class has been stable for ``stable_checkpoints`` consecutive
   checkpoints *and* the top-1/top-2 score gap clears a confidence
   ``margin``; requests that never stabilise fall through to the final
   full-length checkpoint, whose scores equal the ordinary full-stream
   forward pass exactly.

Overload degradation and per-request deadlines do not change the
schedule: they cap each image's exit index (:func:`exit_cap`), so every
answer is still an exact prefix of the one evaluated pass.

The exit checkpoint is the number of stream cycles the hardware would
actually have spent, so ``stream_length / mean(exit_checkpoints)`` is the
mean stream-cycle (and hence energy/latency) reduction -- the quantity
``benchmarks/bench_serve.py`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.base import Backend
from repro.config import DEFAULT_CHECKPOINT_FRACTIONS, resolve_checkpoints
from repro.errors import ConfigurationError, ShapeError

__all__ = [
    "ProgressiveResult",
    "resolve_checkpoints",
    "exit_cap",
    "early_exit_from_scores",
    "progressive_forward",
]


def exit_cap(checkpoints: tuple[int, ...], cycles: float) -> int:
    """Index of the last checkpoint at or below ``cycles`` stream cycles.

    The one cap behind overload degradation and deadline budgets: an
    image's exit index is lowered to it, so a capped answer is still an
    exact stream prefix, just an earlier one.  When every point exceeds
    ``cycles`` the cap is the first checkpoint: an early answer is the
    whole point of capping, so there is always one.
    """
    return max(0, int(np.searchsorted(checkpoints, cycles, side="right")) - 1)


@dataclass(frozen=True)
class ProgressiveResult:
    """Outcome of one progressive early-exit evaluation.

    Attributes:
        scores: ``(batch, n_classes)`` scores at each image's exit
            checkpoint.
        predictions: ``(batch,)`` predicted classes (argmax of ``scores``).
        exit_checkpoints: ``(batch,)`` stream cycles each image actually
            consumed.
        checkpoints: the checkpoint schedule that was evaluated.
        checkpoint_scores: ``(n_checkpoints, batch, n_classes)`` scores at
            every checkpoint (``checkpoint_scores[-1]`` are the
            full-stream scores).
    """

    scores: np.ndarray
    predictions: np.ndarray
    exit_checkpoints: np.ndarray
    checkpoints: tuple[int, ...]
    checkpoint_scores: np.ndarray

    @property
    def stream_length(self) -> int:
        """Full stream length ``N`` (the final checkpoint)."""
        return self.checkpoints[-1]

    @property
    def mean_exit_checkpoint(self) -> float:
        """Mean stream cycles consumed per image."""
        return float(self.exit_checkpoints.mean())

    @property
    def cycle_reduction(self) -> float:
        """Mean stream-cycle reduction ``N / mean(exit_checkpoints)``."""
        return self.stream_length / self.mean_exit_checkpoint


def early_exit_from_scores(
    checkpoint_scores: np.ndarray,
    checkpoints,
    margin: float = 0.1,
    stable_checkpoints: int = 2,
) -> ProgressiveResult:
    """Apply the stability + margin early-exit policy to checkpoint scores.

    An image exits at the first checkpoint ``k`` where

    * the predicted class at checkpoints ``k - stable_checkpoints + 1 ..
      k`` is identical, and
    * the top-1/top-2 score gap at checkpoint ``k`` is at least
      ``margin``;

    images that never satisfy both conditions exit at the final
    checkpoint (the full stream).  The policy is deliberately
    conservative: a lone early checkpoint with a large margin does not
    exit until a later checkpoint *confirms* the same class, which is
    what keeps early-exit predictions glued to the full-stream ones.

    Args:
        checkpoint_scores: ``(n_checkpoints, batch, n_classes)`` scores.
        checkpoints: the evaluated checkpoint cycle counts.
        margin: minimum top-1/top-2 gap for an exit.
        stable_checkpoints: consecutive agreeing checkpoints required.

    Returns:
        The per-image exit decisions and scores.
    """
    scores = np.asarray(checkpoint_scores, dtype=np.float64)
    if scores.ndim != 3:
        raise ShapeError(
            f"checkpoint_scores must have shape (n_checkpoints, batch, "
            f"n_classes), got {scores.shape}"
        )
    points = tuple(int(p) for p in checkpoints)
    n_checkpoints, batch, n_classes = scores.shape
    if len(points) != n_checkpoints:
        raise ShapeError(
            f"{len(points)} checkpoints for {n_checkpoints} score planes"
        )
    if margin < 0:
        raise ConfigurationError(f"margin must be >= 0, got {margin}")
    if stable_checkpoints < 1:
        raise ConfigurationError(
            f"stable_checkpoints must be >= 1, got {stable_checkpoints}"
        )
    predictions = np.argmax(scores, axis=-1)  # (K, B)
    if n_classes >= 2:
        top2 = np.sort(scores, axis=-1)[..., -2:]
        margins = top2[..., 1] - top2[..., 0]  # (K, B)
    else:
        margins = np.full((n_checkpoints, batch), np.inf)
    exit_index = np.full(batch, n_checkpoints - 1)
    undecided = np.ones(batch, dtype=bool)
    # The final checkpoint needs no policy check -- it is the fallback.
    for k in range(stable_checkpoints - 1, n_checkpoints - 1):
        stable = np.ones(batch, dtype=bool)
        for j in range(k - stable_checkpoints + 1, k):
            stable &= predictions[j] == predictions[k]
        exits = undecided & stable & (margins[k] >= margin)
        exit_index[exits] = k
        undecided &= ~exits
    return _exit_at(scores, points, exit_index)


def _exit_at(
    checkpoint_scores: np.ndarray,
    points: tuple[int, ...],
    exit_index: np.ndarray,
) -> ProgressiveResult:
    """The result of every image exiting at its ``exit_index``."""
    scores = checkpoint_scores[exit_index, np.arange(len(exit_index))]
    return ProgressiveResult(
        scores=scores,
        predictions=np.argmax(scores, axis=-1),
        exit_checkpoints=np.asarray(points)[exit_index],
        checkpoints=points,
        checkpoint_scores=checkpoint_scores,
    )


def progressive_forward(
    backend: Backend,
    images: np.ndarray,
    checkpoints=None,
    margin: float = 0.1,
    stable_checkpoints: int = 2,
    early_exit: bool = True,
) -> ProgressiveResult:
    """Score a batch over a checkpoint schedule and pick each image's exit.

    The one evaluation path behind :meth:`repro.api.Session.predict` and
    :class:`~repro.serve.ScInferenceService`.  A progressive backend
    scores every checkpoint with one
    :meth:`~repro.backends.base.Backend.forward_partial` call; with
    ``early_exit`` the stability + margin policy picks each image's exit,
    without it every image exits at the final checkpoint.  One plain
    :meth:`~repro.backends.base.Backend.forward` pass runs instead, every
    image exiting at the full stream length, on a non-progressive backend
    and when neither early exit nor an explicit schedule asks for
    checkpoints.

    Args:
        backend: the execution backend.
        images: ``(batch, channels, height, width)`` images in ``[0, 1]``.
        checkpoints: explicit checkpoint schedule; ``None`` derives the
            default ``N/8, N/4, N/2, N`` schedule from the backend's
            stream length for early exit.
        margin: minimum top-1/top-2 gap for an exit.
        stable_checkpoints: consecutive agreeing checkpoints required.
        early_exit: apply the early-exit policy.
    """
    if not backend.progressive or (checkpoints is None and not early_exit):
        scores = np.asarray(backend.forward(images))
        return _exit_at(
            scores[None],
            (backend.stream_length,),
            np.zeros(scores.shape[0], dtype=int),
        )
    points = (
        resolve_checkpoints(backend.stream_length)
        if checkpoints is None
        else tuple(int(p) for p in checkpoints)
    )
    checkpoint_scores = np.asarray(backend.forward_partial(images, points))
    if early_exit:
        return early_exit_from_scores(
            checkpoint_scores, points, margin, stable_checkpoints
        )
    return _exit_at(
        checkpoint_scores,
        points,
        np.full(checkpoint_scores.shape[1], len(points) - 1),
    )
