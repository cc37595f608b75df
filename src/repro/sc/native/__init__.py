"""Optional compiled kernel tier for the word-packed data plane.

This package is the *seam* between the NumPy reference kernels
(:mod:`repro.sc.packed`, :mod:`repro.blocks.batched`) and their compiled
counterparts.  The current implementation compiles ``_kernels.c`` with
the host C compiler and drives it through cffi's ABI mode (see
:mod:`repro.sc.native._build`); a Numba or Cython implementation can be
dropped in behind the same wrapper signatures without touching any
caller.

Design rules every wrapper follows:

* **Bit-identical or absent.**  A wrapper either produces exactly the
  words/counts its NumPy counterpart would, or returns ``None`` (shape
  or dtype outside the native fast path, tier unavailable) and the
  caller falls back.  No wrapper ever approximates.
* **GIL-free.**  cffi ABI calls release the GIL for the duration of the
  kernel, which is what makes thread-sharded execution
  (:mod:`repro.backends.parallel`) scale.
* **Allocation-free on the hot path.**  Scratch (CSA levels, output
  slabs) comes from the caller's :class:`~repro.workspace.Workspace`.

The tier loads lazily on first use; :func:`available` reports whether
the compiled library is usable and :func:`native_error` carries the
human-readable reason when it is not (no compiler, ``REPRO_NATIVE=0``,
missing cffi, ...).  ``bit-exact-packed`` runs these kernels whenever
the tier is available.  The ``REPRO_NATIVE=0`` opt-out is logged at INFO,
any other load failure as a WARNING with a ``native_fallback`` event.
"""

from __future__ import annotations

import logging
import math
import threading

import numpy as np

from repro.sc.native import _build
from repro.sc.packed import tail_mask, words_for_length

__all__ = [
    "available",
    "native_error",
    "describe",
    "fused_xnor_column_counts",
    "fused_xnor_majority_chain",
    "feature_extraction_recurrence_words",
    "pack_comparator_floats",
    "pack_comparator_words",
    "ones_count",
]

_MAX_LEAD_DIMS = 3
_MAX_COUNT = 65535  # uint16 ceiling of the CSA decode

_lock = threading.Lock()
_state: tuple | None = None  # (ffi, lib, error)


def _load() -> tuple:
    """Lazily build/load the library once per process (thread-safe)."""
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                try:
                    ffi, lib = _build.load()
                    _state = (ffi, lib, None)
                except _build.NativeBuildError as exc:
                    _state = (None, None, str(exc))
                    log = logging.getLogger("repro.sc.native")
                    if _build._disabled_by_env():
                        # An explicit opt-out is a choice, not a fault.
                        log.info("compiled kernel tier off: %s", exc)
                    else:
                        log.warning(
                            "compiled kernel tier unavailable, falling "
                            "back to NumPy kernels: %s",
                            exc,
                            extra={
                                "obs_event": {
                                    "kind": "native_fallback",
                                    "error": str(exc),
                                }
                            },
                        )
    return _state


def _reset_state() -> None:
    """Forget the loaded library (test hook for fallback coverage)."""
    global _state
    with _lock:
        _state = None


def available() -> bool:
    """True when the compiled kernel tier is loaded and usable."""
    return _load()[1] is not None


def native_error() -> str | None:
    """Why the tier is unavailable (``None`` when it is available)."""
    return _load()[2]


def describe() -> str:
    """One-line availability note for registry listings."""
    if available():
        return "native tier: active"
    return f"native tier: unavailable ({native_error()})"


# -- pointer / layout helpers -------------------------------------------------


def _ws(workspace, key, shape, dtype):
    if workspace is not None:
        return workspace.array(key, shape, dtype)
    return np.empty(shape, dtype=dtype)


def _ptr(ffi, arr: np.ndarray, ctype: str):
    return ffi.cast(ctype, arr.ctypes.data)


def _lead_strides(arr: np.ndarray, lead: tuple[int, ...], n_words: int):
    """Broadcast ``arr`` to ``lead`` rows and extract element strides.

    The fused kernels walk up to three leading dimensions with
    per-operand strides while requiring the trailing ``(planes, words)``
    block to be laid out plane-major/word-contiguous.  Returns
    ``(dims, strides, base)`` with both padded to exactly three axes, or
    ``None`` when the layout is outside the native fast path.
    """
    if len(lead) > _MAX_LEAD_DIMS:
        return None
    bc = np.broadcast_to(arr, lead + arr.shape[-2:])
    strides = bc.strides
    if bc.shape[-1] > 1 and strides[-1] != 8:
        return None
    if bc.shape[-2] > 1 and strides[-2] != 8 * n_words:
        return None
    dims = [1] * (_MAX_LEAD_DIMS - len(lead)) + [int(d) for d in lead]
    lead_strides = [0] * (_MAX_LEAD_DIMS - len(lead)) + [
        int(s) for s in strides[: len(lead)]
    ]
    elem = []
    for s in lead_strides:
        if s % 8:
            return None
        elem.append(s // 8)
    return dims, elem, bc


def _uint64_operand(arr) -> np.ndarray | None:
    arr = np.asarray(arr)
    if arr.dtype != np.uint64 or arr.ndim < 2:
        return None
    return arr


# -- fused XNOR -> CSA column counts ------------------------------------------


def fused_xnor_column_counts(
    a,
    b,
    length: int,
    extra=None,
    out: np.ndarray | None = None,
    workspace=None,
    key="native-counts",
) -> np.ndarray | None:
    """Native drop-in for :func:`repro.sc.packed.fused_xnor_column_counts`.

    Returns the counts array (``out`` when given) or ``None`` when the
    operands fall outside the native fast path, in which case the caller
    must run the NumPy kernel instead.
    """
    ffi, lib, _ = _load()
    if lib is None:
        return None
    a = _uint64_operand(a)
    b = _uint64_operand(b)
    if a is None or b is None or a.shape[-2:] != b.shape[-2:]:
        return None
    m, n_words = int(a.shape[-2]), int(a.shape[-1])
    if m < 1 or length < 1 or n_words != words_for_length(length):
        return None
    try:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        return None
    n_extra = 0
    extra_arr = None
    if extra is not None:
        extra_arr = _uint64_operand(extra)
        if extra_arr is None or extra_arr.shape[-1] != n_words:
            return None
        try:
            if np.broadcast_shapes(extra_arr.shape[:-2], lead) != lead:
                return None
        except ValueError:
            return None
        n_extra = int(extra_arr.shape[-2])
    m_total = m + n_extra
    if m_total > _MAX_COUNT:
        return None
    dtype = np.dtype(np.uint8 if m_total <= 255 else np.uint16)
    counts_shape = lead + (int(length),)
    if out is None:
        out = _ws(workspace, (key, "out"), counts_shape, dtype)
    elif (
        out.shape != counts_shape
        or out.dtype != dtype
        or not out.flags["C_CONTIGUOUS"]
    ):
        return None
    info_a = _lead_strides(a, lead, n_words)
    info_b = _lead_strides(b, lead, n_words)
    if info_a is None or info_b is None:
        return None
    if extra_arr is not None:
        info_e = _lead_strides(extra_arr, lead, n_words)
        if info_e is None:
            return None
        e_ptr = _ptr(ffi, info_e[2], "const uint64_t *")
        e_strides = info_e[1]
    else:
        e_ptr = ffi.NULL
        e_strides = [0, 0, 0]
    fn = (
        lib.repro_fused_xnor_counts_u8
        if dtype == np.uint8
        else lib.repro_fused_xnor_counts_u16
    )
    out_ctype = "uint8_t *" if dtype == np.uint8 else "uint16_t *"
    fn(
        _ptr(ffi, info_a[2], "const uint64_t *"),
        _ptr(ffi, info_b[2], "const uint64_t *"),
        e_ptr,
        *info_a[0],
        *info_a[1],
        *info_b[1],
        *e_strides,
        m,
        n_extra,
        n_words,
        int(length),
        int(tail_mask(length)),
        _ptr(ffi, out, out_ctype),
    )
    return out


# -- fused XNOR -> majority chain ---------------------------------------------


def fused_xnor_majority_chain(
    a,
    b,
    length: int,
    out: np.ndarray | None = None,
    workspace=None,
    key="native-chain",
) -> np.ndarray | None:
    """Native drop-in for :func:`repro.sc.packed.fused_xnor_majority_chain`.

    A non-contiguous ``out`` (e.g. a neuron-chunk slice of the output
    buffer) is handled by staging through a workspace slab.  Returns the
    result (``out`` when given) or ``None`` for a fallback.
    """
    ffi, lib, _ = _load()
    if lib is None:
        return None
    a = _uint64_operand(a)
    b = _uint64_operand(b)
    if a is None or b is None or a.shape[-2:] != b.shape[-2:]:
        return None
    k, n_words = int(a.shape[-2]), int(a.shape[-1])
    if k < 1 or length < 1 or n_words != words_for_length(length):
        return None
    try:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        return None
    info_a = _lead_strides(a, lead, n_words)
    info_b = _lead_strides(b, lead, n_words)
    if info_a is None or info_b is None:
        return None
    out_shape = lead + (n_words,)
    if out is not None and (out.shape != out_shape or out.dtype != np.uint64):
        return None
    if out is not None and out.flags["C_CONTIGUOUS"]:
        target = out
    else:
        target = _ws(workspace, (key, "stage"), out_shape, np.uint64)
    lib.repro_fused_xnor_chain(
        _ptr(ffi, info_a[2], "const uint64_t *"),
        _ptr(ffi, info_b[2], "const uint64_t *"),
        *info_a[0],
        *info_a[1],
        *info_b[1],
        k,
        n_words,
        int(length),
        int(tail_mask(length)),
        _ptr(ffi, target, "uint64_t *"),
    )
    if out is not None and target is not out:
        out[...] = target
        return out
    return target


# -- feature-extraction stepper -----------------------------------------------


def feature_extraction_recurrence_words(
    counts,
    half: int,
    low: int,
    high: int,
    workspace=None,
    key="native-fe",
) -> np.ndarray | None:
    """Native FE stepper over row-major ``(..., length)`` column counts.

    Bit-identical to
    :func:`repro.blocks.batched.feature_extraction_recurrence_words`.
    The kernel advances 64 rows in lockstep, one 64-cycle word at a
    time, in int16 lanes for ``uint8`` counts and int32 lanes for
    ``uint16`` counts.  It has no all-states / per-cycle split, so every
    state-space size and slab width runs at full speed.  Returns
    workspace-backed packed words, or ``None`` for a fallback: counts
    outside the fast path, bounds the reference rejects (not
    ``low <= 0 <= high``), or bounds under which a reachable value
    (``acc + count``, and that minus ``half + 1``) overflows the lane.
    """
    ffi, lib, _ = _load()
    if lib is None:
        return None
    counts = np.asarray(counts)
    if counts.dtype not in (np.uint8, np.uint16):
        return None
    if counts.ndim < 1 or not counts.flags["C_CONTIGUOUS"]:
        return None
    half, low, high = int(half), int(low), int(high)
    if not low <= 0 <= high:
        return None
    lane = np.iinfo(np.int16 if counts.dtype == np.uint8 else np.int32)
    peak = high + int(np.iinfo(counts.dtype).max)
    reach = (low, peak, low - half - 1, peak - half, half + 1)
    if min(reach) < lane.min or max(reach) > lane.max:
        return None
    length = int(counts.shape[-1])
    if length < 1:
        return None
    rows = math.prod(counts.shape[:-1])
    n_words = words_for_length(length)
    out = _ws(
        workspace, (key, "words"), counts.shape[:-1] + (n_words,), np.uint64
    )
    fn = (
        lib.repro_fe_recurrence_u8
        if counts.dtype == np.uint8
        else lib.repro_fe_recurrence_u16
    )
    cnt_ctype = "const uint8_t *" if counts.dtype == np.uint8 else "const uint16_t *"
    fn(
        _ptr(ffi, counts, cnt_ctype),
        rows,
        length,
        half,
        low,
        high,
        n_words,
        _ptr(ffi, out, "uint64_t *"),
    )
    return out


# -- word-direct SNG comparator -----------------------------------------------


def pack_comparator_floats(
    draws: np.ndarray,
    thresholds: np.ndarray,
    out: np.ndarray,
    workspace=None,
    key="native-pack",
) -> np.ndarray | None:
    """Pack ``draws[r, t] < thresholds[..., r]`` straight into words.

    ``draws`` is one shared ``(rows, length)`` comparison-draw block and
    ``thresholds`` carries any leading batch axes over it -- exactly the
    shape contract of the mapper's chunked SNG
    (:meth:`repro.nn.sc_layers.ScNetworkMapper` stream generation).  A
    non-contiguous ``out`` (a chunk slice of the stream tensor) is staged
    through the workspace.  Returns ``out`` or ``None`` for a fallback.
    """
    ffi, lib, _ = _load()
    if lib is None:
        return None
    draws = np.asarray(draws)
    thresholds = np.asarray(thresholds)
    if draws.dtype != np.float64 or thresholds.dtype != np.float64:
        return None
    if draws.ndim != 2 or not draws.flags["C_CONTIGUOUS"]:
        return None
    rows, length = (int(d) for d in draws.shape)
    if length < 1 or thresholds.shape[-1:] != (rows,):
        return None
    n_words = words_for_length(length)
    out_shape = thresholds.shape + (n_words,)
    if out.shape != out_shape or out.dtype != np.uint64:
        return None
    lead = math.prod(thresholds.shape[:-1])
    thr = np.ascontiguousarray(thresholds).reshape(lead, rows)
    if out.flags["C_CONTIGUOUS"]:
        target = out
    else:
        target = _ws(workspace, (key, "stage"), out_shape, np.uint64)
    lib.repro_pack_comparator_f64(
        _ptr(ffi, draws, "const double *"),
        _ptr(ffi, thr, "const double *"),
        lead,
        rows,
        length,
        n_words,
        _ptr(ffi, target, "uint64_t *"),
    )
    if target is not out:
        out[...] = target
    return out


def pack_comparator_words(
    random_words,
    thresholds,
    out: np.ndarray | None = None,
) -> np.ndarray | None:
    """Native drop-in for :func:`repro.sc.packed.pack_comparator_words`.

    Handles the ``int64``/``float64`` same-dtype comparisons the SNG
    actually performs; anything else returns ``None`` for the NumPy
    fallback (whose ``np.less`` covers all dtype promotions).
    """
    ffi, lib, _ = _load()
    if lib is None:
        return None
    rw = np.asarray(random_words)
    th = np.asarray(thresholds)
    if rw.ndim < 1 or th.shape != rw.shape[:-1]:
        return None
    if rw.dtype == np.int64 and th.dtype == np.int64:
        fn = lib.repro_pack_comparator_i64
        ctype = "const int64_t *"
    elif rw.dtype == np.float64 and th.dtype == np.float64:
        fn = lib.repro_pack_comparator_f64
        ctype = "const double *"
    else:
        return None
    length = int(rw.shape[-1])
    if length < 1:
        return None
    n_words = words_for_length(length)
    values = math.prod(rw.shape[:-1])
    rw_c = np.ascontiguousarray(rw).reshape(values, length)
    th_c = np.ascontiguousarray(th).reshape(1, values)
    out_shape = rw.shape[:-1] + (n_words,)
    if out is None:
        out = np.empty(out_shape, dtype=np.uint64)
    elif (
        out.shape != out_shape
        or out.dtype != np.uint64
        or not out.flags["C_CONTIGUOUS"]
    ):
        return None
    # One shared-draw row per value: lead=1 collapses the kernel to a
    # per-row comparison with per-row draws.
    fn(
        _ptr(ffi, rw_c, ctype),
        _ptr(ffi, th_c, ctype),
        1,
        values,
        length,
        n_words,
        _ptr(ffi, out, "uint64_t *"),
    )
    return out


# -- popcount decode ----------------------------------------------------------


def ones_count(words) -> np.ndarray | None:
    """Hardware-popcount total of set bits along the word axis."""
    ffi, lib, _ = _load()
    if lib is None:
        return None
    words = np.asarray(words)
    if words.dtype != np.uint64 or words.ndim < 1:
        return None
    if not words.flags["C_CONTIGUOUS"]:
        return None
    n_words = int(words.shape[-1])
    rows = math.prod(words.shape[:-1])
    out = np.empty(words.shape[:-1], dtype=np.int64)
    lib.repro_ones_count(
        _ptr(ffi, words, "const uint64_t *"),
        rows,
        n_words,
        _ptr(ffi, out, "int64_t *"),
    )
    return out
