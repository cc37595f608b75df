"""Batched NumPy kernels for the per-cycle block recurrences.

The sorter-based blocks are defined by per-clock-cycle counter recurrences
(Algorithms 1 and 2 of the paper).  Simulated naively they cost one Python
loop iteration per clock cycle *per block instance*, which is what made
bit-exact network inference "orders of magnitude slower" than the fast
statistical model.  This module provides the two batched kernels the block
classes and the network mapper build on:

* :func:`pooling_recurrence` -- the average-pooling counter has an exact
  closed form (see the function docstring), so the whole stream is computed
  with a single vectorised ``cumsum``; no per-cycle loop at all.
* :func:`feature_extraction_recurrence` -- the clipped signed accumulator
  has no closed form (the two-sided saturation is the very nonlinearity
  that realises ``clip(z, -1, 1)``), so it is evaluated by the
  **word-blocked stepper** (:func:`feature_extraction_recurrence_words`),
  which emits packed 64-bit output words and, for the small accumulator
  state spaces of CONV-sized blocks, advances 64 cycles per Python
  iteration by precomputing every word block for all possible entering
  states at once and chaining the real trajectory with one gather per
  block.  Large state spaces (FC-sized blocks) fall back to a per-cycle
  loop that still advances all block instances of a layer per iteration.

All kernels accept arbitrary leading batch axes and are bit-identical to
the scalar reference models (the unit tests prove it against the explicit
sorted-vector data-path simulations).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.sc.packed import (
    WORD_BITS,
    ones_count,
    tail_mask,
    unpack_bits,
    words_for_length,
)

__all__ = [
    "pooling_recurrence",
    "feature_extraction_recurrence",
    "feature_extraction_recurrence_words",
]


def pooling_recurrence(column_ones: np.ndarray, n_inputs: int) -> np.ndarray:
    """Closed-form batched evaluation of the pooling counter (Algorithm 2).

    The recurrence

    ``k_t = c_t + s_{t-1}``, ``o_t = [k_t >= M]``, ``s_t = k_t - M * o_t``

    (with ``c_t`` the number of ones in input column ``t`` and ``s_0 = 0``)
    emits exactly one ``1`` per ``M`` ones observed.  Because ``c_t <= M``
    the surplus ``s_t`` always stays in ``[0, M - 1]``, so by induction

    ``s_t = C_t mod M``  and  ``O_t = floor(C_t / M)``

    where ``C_t`` / ``O_t`` are the cumulative input-ones / output-ones
    counts.  The output stream is therefore the discrete derivative of
    ``floor(cumsum(c) / M)`` -- fully vectorisable, no per-cycle loop.

    Args:
        column_ones: integer array of shape ``(..., N)`` counting the ones
            per cycle across the ``M`` pooled streams (each entry in
            ``[0, M]``).
        n_inputs: number of pooled streams ``M``.

    Returns:
        0/1 ``uint8`` array of shape ``(..., N)``: the pooled stream.
    """
    c = np.asarray(column_ones)
    if c.ndim == 0:
        raise ShapeError("column_ones needs at least one (stream) axis")
    length = c.shape[-1]
    # The running total is bounded by M * N, so a 32-bit accumulator
    # suffices for every realistic stream length (half the memory traffic).
    accum_dtype = np.int32 if n_inputs * length < 2**31 else np.int64
    emitted = np.add.accumulate(c, axis=-1, dtype=accum_dtype)
    emitted //= n_inputs
    output = np.empty(c.shape, dtype=np.uint8)
    output[..., 0] = emitted[..., 0]
    np.subtract(
        emitted[..., 1:], emitted[..., :-1], out=output[..., 1:], casting="unsafe"
    )
    return output


#: The all-states word-blocked strategy multiplies the arithmetic by the
#: number of accumulator states, so it only pays off while the state space
#: stays small (CONV-sized blocks); FC-sized blocks fall back to the
#: per-cycle stepper.
_STATES_MAX = 16

#: The all-states strategy trades ``states x`` more element arithmetic for
#: ``~N/64 x`` fewer NumPy dispatches, so it wins exactly in the
#: dispatch-bound regime: small per-iteration slabs.  Empirically the
#: break-even sits near ``states * batch ~ 8k`` elements; above it the
#: per-cycle stepper's larger slabs amortise dispatch on their own.
_STATES_MAX_SLAB = 8192


def _check_recurrence_args(
    column_ones: np.ndarray, low: int, high: int, strategy: str
) -> tuple[np.ndarray, int, tuple[int, ...], int, int]:
    """Validate stepper arguments and derive the batch/word geometry."""
    if strategy not in ("auto", "all-states", "per-cycle"):
        raise ConfigurationError(
            f"strategy must be 'auto', 'all-states' or 'per-cycle', "
            f"got {strategy!r}"
        )
    if high < low:
        raise ConfigurationError(f"high ({high}) must be >= low ({low})")
    if not low <= 0 <= high:
        # The recurrence starts from a zero accumulator; a saturation
        # domain that excludes zero has no hardware meaning, and the
        # all-states strategy could not chain from the true start state.
        raise ConfigurationError(
            f"saturation bounds must satisfy low <= 0 <= high, "
            f"got [{low}, {high}]"
        )
    c = np.asarray(column_ones)
    if c.ndim == 0:
        raise ShapeError("column_ones needs at least one (stream) axis")
    length = c.shape[-1]
    batch_shape = c.shape[:-1]
    batch = int(np.prod(batch_shape, dtype=np.int64)) if batch_shape else 1
    return c, length, batch_shape, batch, words_for_length(length)


def _resolve_strategy(
    strategy: str, n_states: int, n_words: int, batch: int
) -> str:
    """Pick the execution strategy for ``"auto"`` (see the constants above)."""
    if strategy != "auto":
        return strategy
    use_states = (
        n_states <= _STATES_MAX
        and n_words >= 2
        and n_states * batch <= _STATES_MAX_SLAB
    )
    return "all-states" if use_states else "per-cycle"


def _ws_array(workspace, key, shape, dtype) -> np.ndarray:
    """Workspace-backed buffer when a workspace is given, else a fresh one.

    Callers without a workspace must receive freshly allocated arrays
    (several of these buffers are returned to the caller, and a shared
    cache would alias results across calls).
    """
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return workspace.array(("fe-stepper",) + key, shape, dtype)


def _blocked_time_major(
    c: np.ndarray, length: int, batch: int, n_words: int, workspace=None
) -> np.ndarray:
    """``(..., N)`` counts -> contiguous ``(n_blocks, 64, batch)`` layout.

    Each all-states iteration reads one contiguous ``(batch,)`` slab; tail
    cycles are zero-padded (their output bits are masked off afterwards).
    """
    time_major = _ws_array(
        workspace, ("tm",), (n_words, WORD_BITS, batch), np.int32
    )
    flat_view = time_major.reshape(n_words * WORD_BITS, batch)
    flat_view[:length] = c.reshape(batch, length).T
    flat_view[length:] = 0
    return time_major


def _time_major_counts(
    c: np.ndarray, length: int, batch: int, workspace=None
) -> np.ndarray:
    """``(..., N)`` counts -> contiguous ``(N, batch)`` for the cycle loop.

    Keeps narrow count dtypes (``uint8``/``uint16``) narrow: the transpose
    copy is the dominant memory pass here, and the per-cycle adds accept
    any integer operand against the ``int32`` accumulator.
    """
    flat = c.reshape(batch, length).T
    if c.dtype.kind not in "iu" or c.dtype.itemsize > 4:
        dtype = np.int32
    else:
        dtype = c.dtype
    buf = _ws_array(workspace, ("tmc",), (length, batch), dtype)
    np.copyto(buf, flat, casting="unsafe")
    return buf


def _recurrence_words_all_states(
    time_major: np.ndarray, half: int, low: int, high: int, workspace=None
) -> np.ndarray:
    """All-states word-blocked stepper: 64 cycles per Python iteration.

    The accumulator recurrence is sequential in ``t``, but its state space
    is tiny (``high - low + 1`` integers).  So every 64-cycle word block is
    advanced **for all possible entering states simultaneously**, across
    all blocks at once -- 64 vectorised iterations in total regardless of
    the stream length -- and the actual trajectory is then stitched
    together with one cheap gather per block.  Output bits are assembled
    directly into packed ``uint64`` words.

    Args:
        time_major: contiguous ``(n_blocks, 64, batch)`` per-cycle column
            counts (tail cycles zero-padded).

    Returns:
        ``(batch, n_blocks)`` packed output words (tail bits unmasked).
    """
    n_blocks, _, batch = time_major.shape
    n_states = high - low + 1
    # Per (state, block, instance): the accumulator trajectory and the
    # 64 output bits of the block, as one packed word.  All per-cycle
    # transients live in (reusable) preallocated buffers: the loop below
    # performs no heap allocation at steady state.
    accumulator = _ws_array(
        workspace, ("acc",), (n_states, n_blocks, batch), np.int32
    )
    accumulator[...] = np.arange(low, high + 1, dtype=np.int32)[:, None, None]
    out_words = _ws_array(
        workspace, ("outw",), (n_states, n_blocks, batch), np.uint64
    )
    out_words[...] = 0
    bit = _ws_array(workspace, ("bit",), (n_states, n_blocks, batch), np.bool_)
    shifted = _ws_array(
        workspace, ("shift",), (n_states, n_blocks, batch), np.uint64
    )
    threshold = half + 1
    for t in range(WORD_BITS):
        np.add(accumulator, time_major[:, t][None], out=accumulator)
        np.greater_equal(accumulator, threshold, out=bit)
        np.copyto(shifted, bit, casting="unsafe")
        np.left_shift(shifted, np.uint64(t), out=shifted)
        np.bitwise_or(out_words, shifted, out=out_words)
        np.subtract(accumulator, half, out=accumulator)
        np.subtract(accumulator, bit, out=accumulator, casting="unsafe")
        # Direct ufuncs: np.clip's dispatch wrapper costs more than the
        # saturation arithmetic at these slab sizes.
        np.maximum(accumulator, low, out=accumulator)
        np.minimum(accumulator, high, out=accumulator)
    # Exit states as indices into the state axis for the chaining pass.
    np.subtract(accumulator, low, out=accumulator)
    result = _ws_array(workspace, ("res",), (batch, n_blocks), np.uint64)
    instance = np.arange(batch)
    state = np.full(batch, -low)  # the accumulator starts at zero
    for block in range(n_blocks):
        result[:, block] = out_words[state, block, instance]
        state = accumulator[state, block, instance]
    return result


def _recurrence_per_cycle_words(
    time_major: np.ndarray, half: int, low: int, high: int, workspace=None
) -> np.ndarray:
    """Per-cycle stepper emitting packed ``uint64`` words directly.

    The large-state fallback: the same recurrence as the all-states
    strategy, advanced one cycle per Python iteration over the whole
    batch.  Each output bit is OR-shifted straight into its packed word
    instead of being stored byte-per-bit and packed afterwards.  That
    avoids two ``(N, batch)`` byte-per-bit transients (the output array
    and the zero-padded copy ``np.packbits`` needs), which at wide slabs
    -- CONV layers flattened to hundreds of thousands of instances --
    dwarf the packed result by ``64 x`` and turn the fallback into a
    memory cliff.
    Transient state is ``O(batch)``; the only output-sized buffer is the
    packed ``(batch, n_words)`` result itself.  Tail bits are never
    written, so the packed-layout invariant (tail bits zero) holds by
    construction.

    Args:
        time_major: contiguous ``(N, batch)`` per-cycle column counts.

    Returns:
        ``(batch, n_words)`` packed output words.
    """
    length, batch = time_major.shape
    n_words = words_for_length(length)
    accumulator = _ws_array(workspace, ("pcw-acc",), (batch,), np.int32)
    accumulator[...] = 0
    words = _ws_array(workspace, ("pcw-out",), (batch, n_words), np.uint64)
    words[...] = 0
    shifted = _ws_array(workspace, ("pcw-shift",), (batch,), np.uint64)
    threshold = half + 1
    for t in range(length):
        np.add(accumulator, time_major[t], out=accumulator)
        bit = accumulator >= threshold
        np.copyto(shifted, bit, casting="unsafe")
        np.left_shift(shifted, np.uint64(t % WORD_BITS), out=shifted)
        word = words[:, t // WORD_BITS]
        np.bitwise_or(word, shifted, out=word)
        np.subtract(accumulator, half, out=accumulator)
        np.subtract(accumulator, bit, out=accumulator, casting="unsafe")
        np.maximum(accumulator, low, out=accumulator)
        np.minimum(accumulator, high, out=accumulator)
    return words


def feature_extraction_recurrence_words(
    column_ones: np.ndarray,
    half: int,
    low: int,
    high: int,
    strategy: str = "auto",
    workspace=None,
) -> np.ndarray:
    """Word-blocked feature-extraction stepper with packed output.

    Evaluates the Algorithm 1 counter recurrence (see
    :func:`feature_extraction_recurrence`) and returns the output streams
    **word-packed** (64 stream bits per ``uint64``, the
    :mod:`repro.sc.packed` layout), which is what lets the packed
    inference backend keep inter-layer feature maps packed end to end.

    Two execution strategies produce bit-identical words:

    * ``"all-states"`` -- precompute every 64-cycle word block for all
      possible accumulator states at once (64 Python iterations total,
      independent of stream length), then chain the real trajectory with
      one gather per block.  The default whenever the state space
      ``high - low + 1`` is small (CONV-sized blocks).
    * ``"per-cycle"`` -- one cycle per Python iteration, kept for large
      state spaces (FC-sized blocks) and for wide slabs (CONV layers
      flattened to very many instances) where the all-states arithmetic
      blow-up outweighs the dispatch savings.  This path is word-blocked
      too: output bits are OR-shifted straight into their packed words
      (:func:`_recurrence_per_cycle_words`), never materialised
      byte-per-bit -- at wide-slab shapes the byte-per-bit route would
      allocate ``64 x`` the packed result in transients.

    Args:
        column_ones: integer array of shape ``(..., N)`` counting ones per
            cycle across the (padded) product streams.
        half: the per-cycle subtraction ``h = (M - 1) / 2``.
        low: accumulator saturation floor (``-h`` signed, ``0`` unsigned).
        high: accumulator saturation ceiling (``h + 1`` signed, ``M``
            unsigned).
        strategy: ``"auto"``, ``"all-states"`` or ``"per-cycle"``.
        workspace: optional :class:`repro.workspace.Workspace` that backs
            every internal buffer (time-major counts, all-states slabs,
            the output words), making repeated invocations allocation-free
            at steady state.  The returned array then lives in the
            workspace and is only valid until the next call that passes
            the same workspace -- callers must copy it (the packed
            backend copies each layer's stepper output into its own
            per-layer buffer).

    Returns:
        ``uint64`` array of shape ``(..., ceil(N / 64))``: the packed
        output streams, tail bits zero.
    """
    shape = _check_recurrence_args(column_ones, low, high, strategy)
    c, length, batch_shape, batch, n_words = shape
    n_states = high - low + 1
    if _resolve_strategy(strategy, n_states, n_words, batch) == "all-states":
        time_major = _blocked_time_major(c, length, batch, n_words, workspace)
        words = _recurrence_words_all_states(
            time_major, half, low, high, workspace
        )
        words[:, -1] &= tail_mask(length)
    else:
        words = _recurrence_per_cycle_words(
            _time_major_counts(c, length, batch, workspace),
            half,
            low,
            high,
            workspace=workspace,
        )
    return words.reshape(batch_shape + (n_words,))


def feature_extraction_recurrence(
    column_ones: np.ndarray,
    half: int,
    low: int,
    high: int,
    return_bits: bool = True,
) -> np.ndarray:
    """Batched evaluation of the feature-extraction accumulator (Algorithm 1).

    Runs the saturating counter recurrence

    ``k_t = c_t + a_{t-1}``, ``o_t = [k_t >= h + 1]``,
    ``a_t = clip(k_t - h - o_t, low, high)``

    for every block instance in the batch simultaneously, delegating to the
    word-blocked stepper (:func:`feature_extraction_recurrence_words`):
    small accumulator state spaces advance 64 cycles per Python iteration
    via the all-states strategy, large ones fall back to the per-cycle
    loop.  Output is bit-identical to the scalar sorted-vector block
    models either way (the unit tests prove it).

    Args:
        column_ones: integer array of shape ``(..., N)`` counting ones per
            cycle across the (padded) product streams.
        half: the per-cycle subtraction ``h = (M - 1) / 2``.
        low: accumulator saturation floor (``-h`` signed, ``0`` unsigned).
        high: accumulator saturation ceiling (``h + 1`` signed, ``M``
            unsigned).
        return_bits: when true return the full 0/1 output streams; when
            false return only the per-instance count of output ones (used
            by the transfer-curve estimator, which never needs the bits).

    Returns:
        ``uint8`` array of shape ``(..., N)`` when ``return_bits``, else an
        ``int64`` array of shape ``(...,)`` of output-ones counts.
    """
    words = feature_extraction_recurrence_words(column_ones, half, low, high)
    if return_bits:
        return unpack_bits(words, np.shape(column_ones)[-1])
    return ones_count(words)
