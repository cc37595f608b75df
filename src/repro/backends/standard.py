"""The migrated execution backends: float, fast-statistical, bit-exact.

Each class wraps one of the evaluation modes that used to live as ad-hoc
methods on the inference engine / network mapper, preserving their exact
numerical behaviour (batching, RNG seeding order, chunking defaults) so
that scores are unchanged mode for mode:

* :class:`FloatBackend` -- the trained float network itself (software
  reference accuracy).
* :class:`FastStatisticalBackend` -- the fast statistical SC model
  (quantised weights, hardware transfer curves, stream decoding noise).
* :class:`BitExactLegacyBackend` -- the per-image, small-chunk bit-exact
  block simulation (the equivalence oracle and perf baseline).

The fully packed data plane lives in
:class:`repro.backends.packed.BitExactPackedBackend`.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend
from repro.blocks.categorization import prefix_chain_scores
from repro.nn.sc_layers import ScNetworkMapper
from repro.sc.packed import pack_bits

__all__ = [
    "FloatBackend",
    "FastStatisticalBackend",
    "BitExactLegacyBackend",
]

#: Image batch size used by the float and fast statistical backends (the
#: batch size of ``Network.predict``); the statistical model draws a fresh
#: noise generator per batch, so its scores depend on these boundaries.
_SCORE_BATCH = 256


class FloatBackend(Backend):
    """Software reference: the trained float network, no SC at all."""

    name = "float"
    description = "trained float network (software reference)"
    bit_exact = False
    batch_invariant = True

    def forward(self, images: np.ndarray) -> np.ndarray:
        bipolar = self._check_images(images) * 2.0 - 1.0
        network = self.mapper.network
        scores = [
            network.forward(bipolar[start : start + _SCORE_BATCH], training=False)
            for start in range(0, bipolar.shape[0], _SCORE_BATCH)
        ]
        return np.concatenate(scores, axis=0)


class FastStatisticalBackend(Backend):
    """Fast statistical SC model (the full-test-set accuracy model).

    The stochastic decoding noise of finite streams is added after every
    block, the paper's evaluation setting.
    """

    name = "sc-fast"
    description = "fast statistical SC model (quantised weights, transfer curves)"
    bit_exact = False
    progressive = True

    def _batched_fast_forward(
        self, images: np.ndarray, mapper: ScNetworkMapper
    ) -> np.ndarray:
        """Score a batch through ``mapper`` with the historical batching.

        One freshly seeded generator per ``_SCORE_BATCH`` slice -- shared
        by :meth:`forward` and every checkpoint of :meth:`forward_partial`
        so the final checkpoint reproduces the full-stream scores exactly.
        """
        scores = [
            mapper.fast_forward(images[start : start + _SCORE_BATCH])
            for start in range(0, images.shape[0], _SCORE_BATCH)
        ]
        return np.concatenate(scores, axis=0)

    def forward(self, images: np.ndarray) -> np.ndarray:
        return self._batched_fast_forward(self._check_images(images), self.mapper)

    def forward_partial(self, images: np.ndarray, checkpoints) -> np.ndarray:
        """Per-checkpoint statistical evaluation of the scores.

        Each checkpoint ``P`` is scored by the fast statistical model at
        stream length ``P`` (decoding noise shrinking as ``1 / sqrt(P)``),
        the statistical analogue of reading the bit-exact stream prefix.
        The final checkpoint reuses this backend's own mapper, so its
        scores equal :meth:`forward` exactly.
        """
        images = self._check_images(images)
        points = self._check_checkpoints(checkpoints)
        scores = []
        for p in points:
            if p == self.stream_length:
                mapper = self.mapper
            else:
                mapper = ScNetworkMapper(
                    self.mapper.network,
                    weight_bits=self.mapper.weight_bits,
                    stream_length=p,
                    seed=self.mapper.seed,
                )
            scores.append(self._batched_fast_forward(images, mapper))
        return np.stack(scores)


class BitExactLegacyBackend(Backend):
    """Per-image, small-chunk bit-exact simulation (equivalence oracle).

    Each image runs through
    :meth:`~repro.nn.sc_layers.ScNetworkMapper.bit_exact_forward_legacy`
    with its default chunk of 32 output positions / neurons.
    """

    name = "bit-exact-legacy"
    description = "per-image byte-per-bit block simulation (reference oracle)"
    bit_exact = True
    progressive = True
    batch_invariant = True

    def forward(self, images: np.ndarray) -> np.ndarray:
        images = self._check_images(images)
        return np.stack(
            [self.mapper.bit_exact_forward_legacy(image) for image in images]
        )

    def forward_partial(self, images: np.ndarray, checkpoints) -> np.ndarray:
        """Checkpoint scores via prefix popcounts of the output streams.

        Same causality argument as the packed backend: the ``P``-bit
        prefix of the categorization-output stream is exactly what the
        hardware would have produced had it stopped after ``P`` cycles.
        """
        points = self._check_checkpoints(checkpoints)
        images = self._check_images(images)
        streams = np.stack(
            [
                self.mapper.bit_exact_forward_legacy(image, return_streams=True)
                for image in images
            ]
        )
        return prefix_chain_scores(
            pack_bits(streams), points, self.stream_length
        )
