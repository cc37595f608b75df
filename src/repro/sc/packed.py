"""Word-packed stochastic bit streams (64 stream bits per ``uint64`` word).

The byte-per-bit :class:`~repro.sc.bitstream.Bitstream` representation is
convenient but wasteful: every SC gate evaluation touches one byte per
stream bit.  This module packs streams 64 bits per ``uint64`` word so that
one CPU word operation evaluates 64 SC gates at once, which is what makes
long-stream (``N >= 8192``) sweeps and whole-network bit-exact inference
tractable in pure NumPy.

Bit layout convention
---------------------
Stream bit ``t`` lives in word ``t // 64`` at bit position ``t % 64``
(LSB-first, i.e. ``np.packbits(..., bitorder="little")`` byte order viewed
as little-endian ``uint64`` words).  The final ("tail") word of a stream
whose length is not a multiple of 64 keeps its unused high bits at **zero**;
every kernel that could set tail bits (e.g. the XNOR's negation) re-applies
the tail mask so the invariant holds everywhere.  Decoding therefore is a
plain popcount over the words, and the AND and OR gates need no kernel:
``a & b`` and ``a | b`` of two clean word arrays are clean.

Every kernel operates on raw ``uint64`` word arrays whose **last axis**
is the word axis; leading axes carry value structure, as in
:class:`~repro.sc.bitstream.Bitstream`.  The stream length ``N`` travels
beside the words (callers that need it pass it explicitly).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.errors import EncodingError, ShapeError
from repro.workspace import Workspace

__all__ = [
    "WORD_BITS",
    "pack_bits",
    "unpack_bits",
    "unpack_bits_into",
    "words_for_length",
    "tail_mask",
    "popcount_words",
    "ones_count",
    "prefix_ones_counts",
    "packed_xnor",
    "majority3_words",
    "majority_chain_words",
    "count_dtype",
    "packed_column_counts",
    "fused_xnor_column_counts",
    "fused_xnor_majority_chain",
]

#: Stream bits stored per packed word.
WORD_BITS = 64

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def words_for_length(length: int) -> int:
    """Number of ``uint64`` words needed to hold ``length`` stream bits."""
    if length <= 0:
        raise ShapeError(f"stream length must be positive, got {length}")
    return (int(length) + WORD_BITS - 1) // WORD_BITS


def tail_mask(length: int) -> np.uint64:
    """Mask of the valid bits in the final word of a ``length``-bit stream."""
    rem = int(length) % WORD_BITS
    if rem == 0:
        return _ALL_ONES
    return np.uint64((1 << rem) - 1)


def _apply_tail_mask(words: np.ndarray, length: int) -> np.ndarray:
    """Zero the unused high bits of the tail word, in place."""
    mask = tail_mask(length)
    if mask != _ALL_ONES:
        words[..., -1] &= mask
    return words


def _native_words(words: np.ndarray) -> np.ndarray:
    """Contiguous uint64 array in the packed (little-endian) byte order."""
    arr = np.ascontiguousarray(words, dtype=np.uint64)
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI hosts
        arr = arr.byteswap()
    return arr


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array of shape ``(..., N)`` into ``(..., ceil(N/64))`` words.

    Stream bit ``t`` of the input maps to bit ``t % 64`` of word ``t // 64``;
    tail bits beyond ``N`` are zero.  Boolean and integer input is packed
    as it is (no byte-per-bit copy); float input raises
    :class:`~repro.errors.EncodingError`.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0:
        raise ShapeError("a bit stream needs at least one (stream) axis")
    if bits.dtype != np.bool_ and not np.issubdtype(bits.dtype, np.integer):
        raise EncodingError(
            f"bits must be boolean or integer, got dtype {bits.dtype}"
        )
    packed_bytes = np.packbits(bits, axis=-1, bitorder="little")
    pad = 8 * words_for_length(bits.shape[-1]) - packed_bytes.shape[-1]
    if pad:  # to whole words: pad the packed bytes, not the bits
        widths = [(0, 0)] * (bits.ndim - 1) + [(0, pad)]
        packed_bytes = np.pad(packed_bytes, widths)
    words = np.ascontiguousarray(packed_bytes).view(np.uint64)
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI hosts
        words = words.byteswap()
    return words


def unpack_bits(words: np.ndarray, length: int) -> np.ndarray:
    """Unpack ``(..., W)`` words back into a ``(..., length)`` 0/1 array."""
    if length <= 0:
        raise ShapeError(f"stream length must be positive, got {length}")
    arr = _native_words(words)
    if arr.ndim == 0 or arr.shape[-1] != words_for_length(length):
        raise ShapeError(
            f"word array of shape {np.shape(words)} cannot hold a "
            f"{length}-bit stream"
        )
    as_bytes = arr.view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little", count=int(length))


# Byte-spread constants of unpack_bits_into: a byte times _SPREAD fills
# all eight bytes of a word with it, _BYTE_BIT keeps bit k in the word's
# k-th byte in memory order, and adding _SPREAD_CARRY then shifting right
# by 7 moves each kept bit to bit 0 of its byte (no byte overflows, so
# nothing carries into the next).
_SPREAD = np.uint64(0x0101010101010101)
_BYTE_BIT = np.uint64(
    0x8040201008040201 if sys.byteorder == "little" else 0x0102040810204080
)
_SPREAD_CARRY = np.uint64(0x7F7F7F7F7F7F7F7F)


def unpack_bits_into(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unpack ``(..., W)`` words into a preallocated ``(..., W * 64)`` buffer.

    The allocation-free counterpart of :func:`unpack_bits` for hot loops
    that reuse a workspace buffer: each packed byte is spread to its eight
    0/1 bytes by a multiply, a mask, an add and a shift on the ``uint64``
    word of ``out`` it fills, all in place, so no intermediate array is
    created.  All ``W * 64`` bit positions are written, including the
    (zero) tail bits beyond the stream length -- callers slice
    ``out[..., :length]``.

    Args:
        words: packed streams of shape ``(..., W)``.
        out: C-contiguous ``uint8`` array of shape ``(..., W * 64)``.

    Returns:
        ``out``.
    """
    arr = _native_words(words)
    if arr.ndim == 0:
        raise ShapeError("a packed stream needs at least one (word) axis")
    expected = arr.shape[:-1] + (arr.shape[-1] * WORD_BITS,)
    if out.shape != expected:
        raise ShapeError(
            f"out shape {out.shape} does not match the unpacked shape "
            f"{expected}"
        )
    if out.dtype != np.uint8 or not out.flags.c_contiguous:
        raise ShapeError("out must be a C-contiguous uint8 array")
    spread = out.view(np.uint64)  # (..., W * 8): a word per packed byte
    np.multiply(arr.view(np.uint8), _SPREAD, out=spread, dtype=np.uint64)
    np.bitwise_and(spread, _BYTE_BIT, out=spread)
    np.add(spread, _SPREAD_CARRY, out=spread)
    np.right_shift(spread, 7, out=spread)
    np.bitwise_and(spread, _SPREAD, out=spread)
    return out


_POPCOUNT_LUT = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)


def _popcount_words_fallback(words: np.ndarray) -> np.ndarray:
    """Byte-LUT population count (the NumPy < 2.0 path).

    Kept unconditionally defined so the unit tests can assert it agrees
    with ``np.bitwise_count`` on hosts that have both.
    """
    arr = np.ascontiguousarray(words, dtype=np.uint64)
    counts = _POPCOUNT_LUT[arr.view(np.uint8)]
    return counts.reshape(arr.shape + (8,)).sum(axis=-1, dtype=np.uint64)


if hasattr(np, "bitwise_count"):

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-word population count (``np.bitwise_count`` on NumPy >= 2.0)."""
        return np.bitwise_count(np.asarray(words, dtype=np.uint64))

else:  # pragma: no cover - NumPy < 2.0 fallback

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-word population count (byte-LUT fallback, NumPy < 2.0)."""
        return _popcount_words_fallback(words)


def ones_count(words: np.ndarray) -> np.ndarray:
    """Total set bits along the word axis (the popcount-based decode core)."""
    return popcount_words(words).sum(axis=-1, dtype=np.int64)


def prefix_ones_counts(
    words: np.ndarray, checkpoints, length: int
) -> np.ndarray:
    """Set-bit counts of stream *prefixes*: ``(..., W)`` -> ``(K, ...)``.

    ``checkpoints`` is a sequence of ``K`` prefix lengths; entry ``k`` of
    the result counts the ones among stream bits ``t < checkpoints[k]``.
    Because bit ``t`` lives in word ``t // 64`` at position ``t % 64``, a
    prefix count is one cumulative-popcount lookup plus (for checkpoints
    off a word boundary) a single masked popcount of the straddled word --
    the word layout makes partial-stream decoding nearly free, which is
    what the progressive-precision early exit of :mod:`repro.serve` is
    built on.

    Args:
        words: packed streams of shape ``(..., W)``.
        checkpoints: prefix lengths, each in ``[1, length]``.
        length: stream length ``N`` (``W == ceil(N / 64)``).

    Returns:
        ``int64`` array of shape ``(K, ...)`` of prefix ones counts.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim == 0 or words.shape[-1] != words_for_length(length):
        raise ShapeError(
            f"word array of shape {np.shape(words)} cannot hold a "
            f"{length}-bit stream"
        )
    checkpoints = [int(p) for p in checkpoints]
    for p in checkpoints:
        if not 1 <= p <= length:
            raise ShapeError(
                f"checkpoint {p} outside the stream length [1, {length}]"
            )
    # One cumulative popcount pass serves every checkpoint.
    cumulative = np.cumsum(popcount_words(words), axis=-1, dtype=np.int64)
    out = np.empty((len(checkpoints),) + words.shape[:-1], dtype=np.int64)
    for k, p in enumerate(checkpoints):
        full_words, rem = divmod(p, WORD_BITS)
        if full_words:
            total = cumulative[..., full_words - 1].copy()
        else:
            total = np.zeros(words.shape[:-1], dtype=np.int64)
        if rem:
            mask = np.uint64((1 << rem) - 1)
            total += popcount_words(words[..., full_words] & mask).astype(
                np.int64
            )
        out[k] = total
    return out


# -- word-parallel SC gate kernels ------------------------------------------


def _check_same_shape(a, b) -> None:
    if np.shape(a) != np.shape(b):
        raise ShapeError(
            f"operand shapes differ: {np.shape(a)} vs {np.shape(b)}"
        )


def packed_xnor(
    a: np.ndarray, b: np.ndarray, length: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Word-parallel XNOR (bipolar SC multiply): 64 gates per word op.

    ``out`` (optional) receives the result without allocating; it may
    alias ``a`` or ``b``.
    """
    _check_same_shape(a, b)
    out = np.bitwise_xor(a, b, out=out)
    np.bitwise_not(out, out=out)
    return _apply_tail_mask(out, length)


def _csa_words(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Word-parallel full adder (carry-save 3:2 compressor).

    Treats the three operands as equal-weight bit planes and returns the
    ``(sum, carry)`` planes: ``sum`` keeps the operands' weight, ``carry``
    has twice that weight.  64 full adders evaluate per word operation.
    """
    partial = a ^ b
    return partial ^ c, (a & b) | (partial & c)


def count_dtype(m_total: int) -> np.dtype:
    """Column-count dtype for ``m_total`` counted planes: ``uint8`` up to
    255 planes, else ``uint16``.

    The one rule every counts producer and its callers size buffers by,
    so a caller-supplied ``out`` always matches what the compiled tier
    expects.
    """
    return np.dtype(np.uint8 if m_total <= 255 else np.uint16)


def packed_column_counts(
    words: np.ndarray, length: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-cycle ones counts across packed streams: ``(..., M, W) -> (..., N)``.

    Computes, for each stream bit position ``t``, how many of the ``M``
    packed streams carry a one at ``t`` -- the "column count" every sorter
    block recurrence consumes -- without ever unpacking the operand
    streams.  The ``M`` bit planes are reduced with a carry-save adder
    tree (:func:`_csa_words`; ``O(M)`` word operations in total), leaving
    one packed plane per count bit; only those ``ceil(log2(M + 1))``
    planes are unpacked and recombined, so the memory traffic is
    logarithmic in ``M`` instead of linear.  The planes are decoded
    straight into the result by :func:`_decode_levels`, through one
    unpack buffer per call and no temporary per level.

    Args:
        words: packed streams of shape ``(..., M, W)`` (any strides).
        length: stream length ``N``.
        out: optional preallocated integer output of shape ``(..., N)``
            (any integer dtype wide enough for ``M``; any strides).

    Returns:
        Integer array of shape ``(..., N)`` with entries in ``[0, M]``
        (``uint8`` when ``M <= 255``, ``uint16`` otherwise, unless ``out``
        supplies the dtype).
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim < 2:
        raise ShapeError("packed_column_counts expects shape (..., M, W)")
    m = words.shape[-2]
    if m < 1:
        raise ShapeError("packed_column_counts needs at least one stream")
    if words.shape[-1] != words_for_length(length):
        raise ShapeError(
            f"word array of shape {words.shape} cannot hold a "
            f"{length}-bit stream"
        )
    # levels[j] holds the not-yet-reduced planes of weight 2**j.
    levels: list[list[np.ndarray]] = [[words[..., i, :] for i in range(m)]]
    j = 0
    while j < len(levels):
        planes = levels[j]
        while len(planes) >= 3:
            total, carry = _csa_words(planes.pop(), planes.pop(), planes.pop())
            planes.append(total)
            if j + 1 == len(levels):
                levels.append([])
            levels[j + 1].append(carry)
        if len(planes) == 2:  # half adder finishes the level
            a, b = planes.pop(), planes.pop()
            planes.append(a ^ b)
            if j + 1 == len(levels):
                levels.append([])
            levels[j + 1].append(a & b)
        j += 1
    shape = words.shape[:-2] + (int(length),)
    if out is None:
        counts = np.empty(shape, dtype=count_dtype(m))
    else:
        _check_counts_out(out, shape, m)
        counts = out
    padded = words.shape[-1] * WORD_BITS
    bits = np.empty(words.shape[:-2] + (padded,), np.uint8)
    return _decode_levels(levels, length, counts, bits)


def _decode_levels(
    levels: list[list[np.ndarray]],
    length: int,
    counts: np.ndarray,
    bits: np.ndarray,
) -> np.ndarray:
    """Recombine reduced CSA levels into per-cycle counts, in place.

    ``levels[j]`` holds the one packed plane of weight ``2**j``.  The
    planes are taken most significant first (``counts = 2 * counts +
    plane``): every partial sum is a prefix of a final count, so nothing
    overflows ``counts``' dtype and no plane is ever shifted or widened.
    Each plane is unpacked into ``bits``, one C-contiguous ``uint8``
    buffer of shape ``(..., W * 64)`` reused for every level.
    """
    view = bits[..., :length]
    top = len(levels) - 1
    for exponent in range(top, -1, -1):
        (plane,) = levels[exponent]
        unpack_bits_into(plane, bits)
        if exponent == top:
            np.copyto(counts, view, casting="unsafe")
        else:
            np.add(counts, counts, out=counts)
            np.add(counts, view, out=counts, casting="unsafe")
    return counts


def _check_counts_out(out: np.ndarray, shape: tuple[int, ...], m: int) -> None:
    """Validate a caller-supplied column-counts output buffer.

    Counts reach ``m``, so a too-narrow integer dtype would wrap silently
    (the accumulation casts into ``out``'s dtype); reject it loudly.
    """
    if out.shape != shape or out.dtype.kind not in "iu":
        raise ShapeError(
            f"out must be an integer array of shape {shape}, got "
            f"{out.dtype} {out.shape}"
        )
    if np.iinfo(out.dtype).max < m:
        raise ShapeError(
            f"out dtype {out.dtype} cannot represent counts up to {m}"
        )


# -- fused XNOR-product reductions -------------------------------------------
#
# The packed inference backend's inner product is "XNOR the input streams
# with the weight streams, then count ones per cycle".  Materialising the
# whole (..., M, W) product tensor first and reducing it afterwards makes
# the product tensor the peak allocation of every layer; the fused kernels
# below compute the products one plane at a time into reusable buffers and
# reduce them *as they are produced*, so at most O(log M) equal-weight
# carry-save planes (plus one product plane) are ever live -- the streaming
# formulation of the CSA tree in :func:`packed_column_counts`, with the
# identical gate count and bit-identical results.


def _plane_buffers(workspace, key: str, shape: tuple[int, ...]):
    """A take/recycle pair over workspace-backed ``uint64`` plane buffers."""
    free: list[np.ndarray] = []
    created = 0

    def take() -> np.ndarray:
        nonlocal created
        if free:
            return free.pop()
        buf = workspace.array((key, created), shape, np.uint64)
        created += 1
        return buf

    return take, free


def _csa_push(levels, buf: np.ndarray, take, free, start_level: int = 0) -> None:
    """Add one equal-weight plane to the streaming carry-save accumulator.

    ``levels[j]`` holds the pending planes of weight ``2**j`` (at most
    two); a third plane triggers a 3:2 compression whose carry cascades
    upward.  Operands are consumed in place: of the three compressed
    buffers one becomes the sum, one is recycled, and a fresh buffer
    carries upward.
    """
    j = start_level
    while True:
        if j == len(levels):
            levels.append([])
        levels[j].append(buf)
        if len(levels[j]) < 3:
            return
        x, y, z = levels[j]
        carry = take()
        np.bitwise_and(x, y, out=carry)
        np.bitwise_xor(x, y, out=x)  # x = x ^ y
        np.bitwise_and(x, z, out=y)  # y = (x ^ y) & z
        np.bitwise_or(carry, y, out=carry)
        np.bitwise_xor(x, z, out=x)  # x = sum plane
        free.append(y)
        free.append(z)
        levels[j] = [x]
        buf = carry
        j += 1


def _csa_finalize(levels, take, free) -> None:
    """Half-add the two-plane levels so every level holds at most one plane."""
    j = 0
    while j < len(levels):
        if len(levels[j]) == 2:
            x, y = levels[j]
            carry = take()
            np.bitwise_and(x, y, out=carry)
            np.bitwise_xor(x, y, out=x)
            free.append(y)
            levels[j] = [x]
            _csa_push(levels, carry, take, free, j + 1)
        j += 1


def fused_xnor_column_counts(
    a: np.ndarray,
    b: np.ndarray,
    length: int,
    extra: np.ndarray | None = None,
    out: np.ndarray | None = None,
    workspace=None,
    key: str = "fused-counts",
) -> np.ndarray:
    """Column counts of XNOR product streams without the product tensor.

    Bit-identical to ``packed_column_counts(packed_xnor(a, b, length),
    length)`` (with ``extra`` planes appended to the products), but the
    ``(..., M, W)`` product tensor is never materialised: each product
    plane is formed in a reusable buffer and immediately folded into the
    streaming carry-save accumulator, so only ``O(log M)`` live planes
    exist at any time.  This is what lets the packed backend process far
    larger position chunks within the same memory budget.

    Args:
        a: packed streams of shape ``(..., M, W)`` (broadcastable
            against ``b`` on the leading axes).
        b: packed streams of shape ``(..., M, W)``.
        length: stream length ``N``.
        extra: optional packed streams of shape ``(..., K, W)`` counted
            as-is (no XNOR) -- e.g. bias streams; tail bits must already
            be zero.
        out: optional preallocated integer output of shape ``(..., N)``.
        workspace: optional :class:`repro.workspace.Workspace` whose
            buffers are reused across calls (near-zero steady-state
            allocation); ``None`` uses a throwaway arena.
        key: workspace key namespace (distinct concurrent call sites on
            one workspace must use distinct keys).

    Returns:
        Integer array of shape ``(..., N)`` with entries in
        ``[0, M + K]``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("fused_xnor_column_counts expects shape (..., M, W)")
    if a.shape[-2:] != b.shape[-2:]:
        raise ShapeError(
            f"operand (M, W) axes differ: {a.shape[-2:]} vs {b.shape[-2:]}"
        )
    m_products = a.shape[-2]
    n_words = a.shape[-1]
    if n_words != words_for_length(length):
        raise ShapeError(
            f"word arrays of shape {a.shape} cannot hold {length}-bit streams"
        )
    n_extra = 0
    if extra is not None:
        extra = np.asarray(extra, dtype=np.uint64)
        if extra.ndim < 2 or extra.shape[-1] != n_words:
            raise ShapeError(
                f"extra planes of shape {extra.shape} incompatible with "
                f"{n_words}-word streams"
            )
        n_extra = extra.shape[-2]
    m_total = m_products + n_extra
    if m_total < 1:
        raise ShapeError("fused_xnor_column_counts needs at least one stream")
    lead_shapes = [a.shape[:-2], b.shape[:-2]]
    if extra is not None:
        lead_shapes.append(extra.shape[:-2])
    plane_shape = np.broadcast_shapes(*lead_shapes) + (n_words,)

    ws = workspace if workspace is not None else Workspace()
    take, free = _plane_buffers(ws, key, plane_shape)
    mask = tail_mask(length)
    levels: list[list[np.ndarray]] = [[]]
    for i in range(m_products):
        buf = take()
        np.bitwise_xor(a[..., i, :], b[..., i, :], out=buf)
        np.bitwise_not(buf, out=buf)
        if mask != _ALL_ONES:
            buf[..., -1] &= mask
        _csa_push(levels, buf, take, free)
    for i in range(n_extra):
        buf = take()
        buf[...] = extra[..., i, :]
        _csa_push(levels, buf, take, free)
    _csa_finalize(levels, take, free)

    shape = plane_shape[:-1] + (int(length),)
    if out is None:
        counts = np.empty(shape, dtype=count_dtype(m_total))
    else:
        _check_counts_out(out, shape, m_total)
        counts = out
    padded = n_words * WORD_BITS
    bits = ws.array((key, "bits"), plane_shape[:-1] + (padded,), np.uint8)
    return _decode_levels(levels, length, counts, bits)


def fused_xnor_majority_chain(
    a: np.ndarray,
    b: np.ndarray,
    length: int,
    out: np.ndarray | None = None,
    workspace=None,
    key: str = "fused-chain",
) -> np.ndarray:
    """Majority chain over XNOR product streams without the product tensor.

    Bit-identical to ``majority_chain_words(packed_xnor(a, b, length))``
    -- the categorization-layer reduction -- but the ``(..., K, W)``
    product tensor is never materialised: products are formed pairwise in
    two reusable plane buffers and folded into the chain accumulator gate
    by gate, mirroring the hardware factorisation exactly.

    Args:
        a: packed streams of shape ``(..., K, W)`` (broadcastable
            against ``b`` on the leading axes).
        b: packed streams of shape ``(..., K, W)``.
        length: stream length ``N``.
        out: optional preallocated ``uint64`` output of shape
            ``(..., W)``.
        workspace: optional :class:`repro.workspace.Workspace`; ``None``
            uses a throwaway arena.
        key: workspace key namespace.

    Returns:
        Packed words of shape ``(..., W)``.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("fused_xnor_majority_chain expects shape (..., K, W)")
    if a.shape[-2:] != b.shape[-2:]:
        raise ShapeError(
            f"operand (K, W) axes differ: {a.shape[-2:]} vs {b.shape[-2:]}"
        )
    k = a.shape[-2]
    n_words = a.shape[-1]
    if n_words != words_for_length(length):
        raise ShapeError(
            f"word arrays of shape {a.shape} cannot hold {length}-bit streams"
        )
    if k < 1:
        raise ShapeError("fused_xnor_majority_chain needs at least one stream")
    plane_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (n_words,)
    if out is None:
        acc = np.empty(plane_shape, dtype=np.uint64)
    else:
        if out.shape != plane_shape or out.dtype != np.uint64:
            raise ShapeError(
                f"out must be a uint64 array of shape {plane_shape}, got "
                f"{out.dtype} {out.shape}"
            )
        acc = out
    mask = tail_mask(length)

    def product_into(i: int, buf: np.ndarray) -> None:
        np.bitwise_xor(a[..., i, :], b[..., i, :], out=buf)
        np.bitwise_not(buf, out=buf)
        if mask != _ALL_ONES:
            buf[..., -1] &= mask

    if k == 1:
        product_into(0, acc)
        return acc
    ws = workspace if workspace is not None else Workspace()
    first = ws.array((key, 0), plane_shape, np.uint64)
    if k == 2:
        product_into(0, acc)
        product_into(1, first)
        np.bitwise_and(acc, first, out=acc)
        return acc
    second = ws.array((key, 1), plane_shape, np.uint64)
    # acc = Maj(p0, p1, p2) = (p0 & (p1 | p2)) | (p1 & p2)
    product_into(0, acc)
    product_into(1, first)
    product_into(2, second)
    scratch = ws.array((key, 2), plane_shape, np.uint64)
    np.bitwise_or(first, second, out=scratch)
    np.bitwise_and(acc, scratch, out=acc)
    np.bitwise_and(first, second, out=first)
    np.bitwise_or(acc, first, out=acc)
    index = 3
    while index < k:
        if index + 1 < k:
            product_into(index, first)
            product_into(index + 1, second)
            np.bitwise_or(first, second, out=scratch)
            np.bitwise_and(scratch, acc, out=scratch)
            np.bitwise_and(first, second, out=first)
            np.bitwise_or(scratch, first, out=acc)
            index += 2
        else:
            product_into(index, first)
            np.bitwise_and(acc, first, out=acc)
            index += 1
    return acc


def majority3_words(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Word-parallel 3-input majority: ``(a&b) | (a&c) | (b&c)``."""
    return (a & b) | (a & c) | (b & c)


def majority_chain_words(words: np.ndarray) -> np.ndarray:
    """Word-parallel majority chain over packed product streams.

    Mirrors the hardware chain factorisation of
    :class:`~repro.blocks.categorization.MajorityChainCategorizationBlock`
    bit-for-bit: ``a_0 = Maj(b_1, b_2, b_3)``, then one gate per further
    input pair, with a single trailing input paired with constant 0 (so the
    last gate degenerates to an AND).

    Args:
        words: packed streams of shape ``(..., K, W)``.

    Returns:
        Packed words of shape ``(..., W)``.
    """
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim < 2:
        raise ShapeError("majority_chain_words expects shape (..., K, W)")
    k = words.shape[-2]
    if k == 1:
        return words[..., 0, :].copy()
    if k == 2:
        return words[..., 0, :] & words[..., 1, :]
    acc = majority3_words(words[..., 0, :], words[..., 1, :], words[..., 2, :])
    index = 3
    while index < k:
        if index + 1 < k:
            acc = majority3_words(
                acc, words[..., index, :], words[..., index + 1, :]
            )
            index += 2
        else:
            acc = acc & words[..., index, :]
            index += 1
    return acc
