"""Elementary stochastic-computing arithmetic.

These are the textbook SC gates summarised in the paper's Fig. 4:

* unipolar multiplication  -> AND gate,
* bipolar multiplication   -> XNOR gate,
* scaled addition          -> multiplexer tree (output is the mean of the
  inputs, i.e. the sum scaled by ``1 / n``),
* OR gate                  -> used inside sorters (max of two bits).

All functions operate on plain bit arrays whose last axis is the stream
axis, or on :class:`~repro.sc.bitstream.Bitstream` objects: the byte-per-bit
reference the block models are checked against.  The word-packed data
plane runs the 64-bits-per-word kernels of :mod:`repro.sc.packed` on raw
``uint64`` words instead (``packed_xnor`` is this module's XNOR there).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sc.bitstream import Bitstream, _validate_bits
from repro.sc.encoding import BIPOLAR, UNIPOLAR

__all__ = [
    "xnor_multiply",
    "and_multiply",
    "or_gate",
    "mux_add",
    "mux_scaled_add",
]

Operand = Bitstream | np.ndarray


def _as_bits(stream: Operand) -> np.ndarray:
    if isinstance(stream, Bitstream):
        return stream.bits
    # Raw arrays have not been through a container's domain check yet; the
    # bitwise kernels (unlike the old logical ufuncs) would silently accept
    # values outside {0, 1}.
    arr = np.asarray(stream)
    _validate_bits(arr)
    return arr.astype(np.uint8, copy=False)


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"operand shapes differ: {a.shape} vs {b.shape}")


def xnor_multiply(a: Operand, b: Operand) -> Bitstream:
    """Bipolar SC multiplication: one XNOR gate per stream bit."""
    bits_a = _as_bits(a)
    bits_b = _as_bits(b)
    _check_same_shape(bits_a, bits_b)
    bits = np.bitwise_xor(bits_a, bits_b)
    np.bitwise_xor(bits, 1, out=bits)
    return Bitstream._trusted(bits, BIPOLAR)


def and_multiply(a: Operand, b: Operand) -> Bitstream:
    """Unipolar SC multiplication: one AND gate per stream bit."""
    bits_a = _as_bits(a)
    bits_b = _as_bits(b)
    _check_same_shape(bits_a, bits_b)
    return Bitstream._trusted(np.bitwise_and(bits_a, bits_b), UNIPOLAR)


def or_gate(a: Operand, b: Operand) -> np.ndarray:
    """Bitwise OR (the MAX half of a binary compare-and-swap).

    Returns a raw ``uint8`` array: OR is encoding-agnostic.
    """
    bits_a = _as_bits(a)
    bits_b = _as_bits(b)
    _check_same_shape(bits_a, bits_b)
    return np.bitwise_or(bits_a, bits_b)


def mux_add(
    streams: Operand, select: np.ndarray, encoding: str = BIPOLAR
) -> Bitstream:
    """Multiplexer addition with an explicit select sequence.

    Args:
        streams: bits of shape ``(n_inputs, ..., N)``.
        select: integer select values of shape ``(..., N)`` or ``(N,)`` in
            ``[0, n_inputs)`` choosing which input drives each output bit.
        encoding: encoding tag for the returned stream.

    Returns:
        The selected stream; its value is the mean of the input values when
        ``select`` is uniform.
    """
    bits = _as_bits(streams)
    if bits.ndim < 2:
        raise ShapeError("mux_add expects shape (n_inputs, ..., N)")
    select = np.asarray(select)
    n_inputs = bits.shape[0]
    if select.shape != bits.shape[1:] and select.shape != (bits.shape[-1],):
        raise ShapeError(
            f"select shape {select.shape} incompatible with streams {bits.shape}"
        )
    if np.any(select < 0) or np.any(select >= n_inputs):
        raise ShapeError(f"select values must lie in [0, {n_inputs})")
    selected = np.take_along_axis(
        bits, np.broadcast_to(select, bits.shape[1:])[None, ...], axis=0
    )[0]
    return Bitstream(selected, encoding)


def mux_scaled_add(
    streams: Operand,
    rng: np.random.Generator,
    encoding: str = BIPOLAR,
) -> Bitstream:
    """Multiplexer addition with a uniformly random select sequence.

    This is the scaled adder used by the prior-work CMOS pooling block: the
    output value is the mean of the inputs, with variance that grows as the
    number of inputs grows (the inaccuracy the paper's sorter-based pooling
    block removes).
    """
    bits = _as_bits(streams)
    if bits.ndim < 2:
        raise ShapeError("mux_scaled_add expects shape (n_inputs, ..., N)")
    select = rng.integers(0, bits.shape[0], size=bits.shape[1:])
    return mux_add(bits, select, encoding)
