"""Stochastic number generators (binary-to-stochastic conversion).

An SNG converts an ``n``-bit binary magnitude into a stochastic bit stream
by comparing it against a fresh ``n``-bit random word every clock cycle: the
output bit is 1 when the random word is below the magnitude.  The quality of
the stream is therefore set entirely by the random word source, which is why
the AQFP true-RNG matrix matters so much in the paper.

:class:`StochasticNumberGenerator` is source-agnostic: pass an AQFP TRNG, an
LFSR, or words drawn from an :class:`~repro.rng.matrix.RngMatrix`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError, ShapeError
from repro.rng.base import RandomWordSource
from repro.sc.bitstream import Bitstream
from repro.sc.encoding import (
    BIPOLAR,
    bipolar_encode_probability,
    unipolar_encode_probability,
    validate_encoding,
)

__all__ = ["StochasticNumberGenerator", "quantize_to_levels"]


def quantize_to_levels(values: np.ndarray | float, n_bits: int, encoding: str) -> np.ndarray:
    """Quantize real values to the ``2**n_bits`` comparator levels of an SNG.

    The hardware stores weights as ``n_bits``-wide binary magnitudes; this
    returns the integer threshold fed to the comparator for each value.
    """
    validate_encoding(encoding)
    if n_bits <= 0 or n_bits > 31:
        raise EncodingError(f"n_bits must be in [1, 31], got {n_bits}")
    levels = 1 << n_bits
    if encoding == BIPOLAR:
        p = bipolar_encode_probability(values)
    else:
        p = unipolar_encode_probability(values)
    return np.clip(np.rint(p * levels), 0, levels).astype(np.int64)


class StochasticNumberGenerator:
    """Comparator-based SNG driven by an arbitrary random word source.

    Args:
        source: random word source; its :attr:`n_bits` sets comparator width.
        encoding: stream encoding produced by :meth:`generate`.
    """

    def __init__(self, source: RandomWordSource, encoding: str = BIPOLAR) -> None:
        self._source = source
        self._encoding = validate_encoding(encoding)

    @property
    def source(self) -> RandomWordSource:
        """The underlying random word source."""
        return self._source

    @property
    def n_bits(self) -> int:
        """Comparator / binary magnitude width."""
        return self._source.n_bits

    @property
    def encoding(self) -> str:
        """Encoding of generated streams."""
        return self._encoding

    def thresholds(self, values: np.ndarray | float) -> np.ndarray:
        """Comparator thresholds corresponding to ``values``."""
        return quantize_to_levels(values, self.n_bits, self._encoding)

    def generate(self, values: np.ndarray | float, length: int) -> Bitstream:
        """Convert real values to stochastic streams of the given length.

        Each value gets an independent sequence of random words; the output
        bit for cycle ``t`` is ``1`` when ``random_word[t] < threshold``.
        """
        if length <= 0:
            raise ShapeError(f"stream length must be positive, got {length}")
        thresholds = self.thresholds(values)
        words = self._source.words(thresholds.shape + (length,))
        bits = (words < thresholds[..., None]).astype(np.uint8)
        return Bitstream(bits, self._encoding)

    def generate_from_shared_words(
        self, values: np.ndarray | float, words: np.ndarray
    ) -> Bitstream:
        """Convert values using externally supplied random words.

        This is how the RNG-matrix sharing scheme is exercised: the caller
        draws ``(n_values, length)`` words from the matrix and several SNGs
        reuse (different slices of) them.
        """
        thresholds = self.thresholds(values)
        words = np.asarray(words)
        if words.shape[:-1] != thresholds.shape:
            raise ShapeError(
                "words shape "
                f"{words.shape} incompatible with values shape {thresholds.shape}"
            )
        bits = (words < thresholds[..., None]).astype(np.uint8)
        return Bitstream(bits, self._encoding)

    def expected_value(self, values: np.ndarray | float) -> np.ndarray:
        """Exact decoded value of an infinitely long generated stream.

        Quantisation by the ``n_bits`` comparator is the only deviation from
        the requested value, so this is the quantised value.
        """
        thresholds = self.thresholds(values).astype(np.float64)
        p = thresholds / (1 << self.n_bits)
        if self._encoding == BIPOLAR:
            return 2.0 * p - 1.0
        return p
