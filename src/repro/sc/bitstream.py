"""Bit-stream container for stochastic numbers.

A :class:`Bitstream` wraps a ``uint8`` array whose **last axis** is the
stream (time) dimension of length ``N``.  Leading axes carry arbitrary
tensor structure, so a whole convolution feature map can be represented by
one object of shape ``(channels, height, width, N)``.

The container knows its encoding (unipolar or bipolar) so that decoding and
arithmetic helpers do not need to be told twice.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import EncodingError, ShapeError
from repro.sc.encoding import (
    BIPOLAR,
    UNIPOLAR,
    bipolar_decode,
    bipolar_encode_probability,
    unipolar_decode,
    unipolar_encode_probability,
    validate_encoding,
)

__all__ = ["Bitstream"]


def _validate_bits(arr: np.ndarray) -> None:
    """Cheap 0/1 domain check (single min/max pass, no sort).

    Integer and boolean arrays only need a range check; anything else (e.g.
    floats) additionally needs an exact membership test so values like 0.5
    are still rejected.
    """
    if not arr.size:
        return
    if arr.dtype == np.bool_:
        return
    if arr.dtype.kind in "iu":
        if arr.max() > 1 or arr.min() < 0:
            raise EncodingError("bit streams may only contain 0 and 1")
        return
    if not ((arr == 0) | (arr == 1)).all():
        raise EncodingError("bit streams may only contain 0 and 1")


class Bitstream:
    """A (possibly multi-dimensional) stochastic bit stream.

    Args:
        bits: array-like of 0/1 values; the last axis is the stream axis.
        encoding: ``"bipolar"`` (default) or ``"unipolar"``.
    """

    __slots__ = ("_bits", "_encoding")

    def __init__(self, bits: np.ndarray | Iterable[int], encoding: str = BIPOLAR) -> None:
        arr = np.asarray(bits)
        if arr.ndim == 0:
            raise ShapeError("a bit stream needs at least one (stream) axis")
        _validate_bits(arr)
        self._bits = arr.astype(np.uint8)
        self._encoding = validate_encoding(encoding)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, bits: np.ndarray, encoding: str) -> "Bitstream":
        """Wrap already-validated internal output without copy or checks.

        Fast path for :mod:`repro.sc.ops` and the block models, whose
        outputs are fresh ``uint8`` 0/1 arrays by construction; ``encoding``
        must already be a validated encoding tag.
        """
        obj = cls.__new__(cls)
        obj._bits = bits
        obj._encoding = encoding
        return obj

    @classmethod
    def from_probabilities(
        cls,
        probabilities: np.ndarray | float,
        length: int,
        rng: np.random.Generator,
        encoding: str = BIPOLAR,
    ) -> "Bitstream":
        """Sample a stream whose bits are Bernoulli(``probabilities``).

        This is the *ideal* (infinite-precision comparator) stream
        generator; hardware SNGs live in :mod:`repro.sc.sng`.
        """
        if length <= 0:
            raise ShapeError(f"stream length must be positive, got {length}")
        p = np.asarray(probabilities, dtype=np.float64)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise EncodingError("probabilities must lie in [0, 1]")
        draws = rng.random(p.shape + (length,))
        bits = (draws < p[..., None]).astype(np.uint8)
        return cls._trusted(bits, validate_encoding(encoding))

    @classmethod
    def from_values(
        cls,
        values: np.ndarray | float,
        length: int,
        rng: np.random.Generator,
        encoding: str = BIPOLAR,
    ) -> "Bitstream":
        """Encode real values into a sampled stream of the given length."""
        if encoding == BIPOLAR:
            p = bipolar_encode_probability(values)
        elif encoding == UNIPOLAR:
            p = unipolar_encode_probability(values)
        else:  # pragma: no cover - validate_encoding covers this
            raise EncodingError(f"unknown encoding {encoding!r}")
        return cls.from_probabilities(p, length, rng, encoding)

    @classmethod
    def constant_zero_value(cls, length: int, encoding: str = BIPOLAR) -> "Bitstream":
        """The paper's "neutral noise": an alternating 0/1 stream of value 0.

        In bipolar encoding an alternating ``0101...`` stream has exactly
        half of its bits set, i.e. represents the value 0 with zero variance.
        It is appended to even-sized feature-extraction inputs so that
        ``(M - 1) / 2`` stays an integer.
        """
        if length <= 0:
            raise ShapeError(f"stream length must be positive, got {length}")
        bits = (np.arange(length) % 2).astype(np.uint8)
        return cls._trusted(bits, validate_encoding(encoding))

    # -- basic properties --------------------------------------------------

    @property
    def bits(self) -> np.ndarray:
        """The underlying ``uint8`` bit array (last axis = stream axis)."""
        return self._bits

    @property
    def encoding(self) -> str:
        """Encoding format of this stream."""
        return self._encoding

    @property
    def length(self) -> int:
        """Stream length ``N``."""
        return int(self._bits.shape[-1])

    @property
    def value_shape(self) -> tuple[int, ...]:
        """Shape of the encoded value tensor (all axes except the stream)."""
        return tuple(self._bits.shape[:-1])

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bitstream(shape={self._bits.shape}, encoding={self._encoding!r}, "
            f"value={np.array2string(np.asarray(self.to_values()), precision=3)})"
        )

    # -- decoding ----------------------------------------------------------

    def ones_fraction(self) -> np.ndarray:
        """Fraction of ones along the stream axis."""
        return self._bits.mean(axis=-1)

    def to_values(self) -> np.ndarray:
        """Decode the stream back to real values according to its encoding."""
        fraction = self.ones_fraction()
        if self._encoding == BIPOLAR:
            return bipolar_decode(fraction)
        return unipolar_decode(fraction)

    # -- structural helpers --------------------------------------------------

    def reshape_values(self, shape: tuple[int, ...]) -> "Bitstream":
        """Reshape the value axes, keeping the stream axis last.

        Returns an independent copy (never a view of this stream's bits).
        """
        new_shape = tuple(shape) + (self.length,)
        return Bitstream._trusted(
            self._bits.reshape(new_shape).copy(), self._encoding
        )

    def stack(self, others: Iterable["Bitstream"]) -> "Bitstream":
        """Stack this stream with others along a new leading value axis."""
        streams = [self, *others]
        lengths = {s.length for s in streams}
        encodings = {s.encoding for s in streams}
        if len(lengths) != 1:
            raise ShapeError(f"cannot stack streams of different lengths {lengths}")
        if len(encodings) != 1:
            raise EncodingError("cannot stack streams with different encodings")
        return Bitstream._trusted(
            np.stack([s.bits for s in streams], axis=0), self._encoding
        )

    def select(self, index: int) -> "Bitstream":
        """Select one entry along the first value axis.

        Returns an independent copy (never a view of this stream's bits).
        """
        if self._bits.ndim < 2:
            raise ShapeError("select() requires at least one value axis")
        return Bitstream._trusted(self._bits[index].copy(), self._encoding)

    def absolute_error(self, reference: np.ndarray | float) -> np.ndarray:
        """Absolute error of the decoded values against a reference tensor."""
        return np.abs(self.to_values() - np.asarray(reference, dtype=np.float64))
