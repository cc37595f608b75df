"""Reusable buffer arena for allocation-free hot loops.

The packed inference kernels are memory-bandwidth bound: at steady state
the arrays they need have the same shapes on every ``forward()`` call, so
re-allocating them per call only adds allocator traffic and page faults on
the hot path.  :class:`Workspace` is a tiny capacity-based arena that hands
out NumPy views over cached byte buffers, keyed by the call site: the
first request under a key allocates, later requests reuse (growing the
backing buffer only when a larger shape shows up, e.g. a tail chunk being
followed by a full one).

A workspace is owned by exactly one execution context (one backend
instance, one kernel invocation) and is **not** thread-safe: two
concurrent users of the same key would scribble over each other's data.
Backends therefore hold one workspace per replica, which is also why a
``workers`` call of :class:`repro.api.Session` runs every shard on its
own replica.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace"]

#: Every arena buffer starts on a 64-byte boundary: one full cache line,
#: and the widest vector width the compiled kernel tier may be built for
#: (AVX-512).  NumPy's own allocator guarantees less, so alignment is
#: enforced by over-allocating and slicing at the boundary.
_ALIGNMENT = 64


class Workspace:
    """Capacity-based reusable buffer arena.

    Buffers are keyed by an arbitrary hashable ``key`` (call sites use
    string/tuple keys naming the kernel and slot).  :meth:`array` returns
    a view with the requested shape and dtype over the cached byte buffer
    for that key, growing it when needed; the contents are
    **uninitialised** (like ``np.empty``), so callers must fully write
    the view before reading it.  Every buffer starts 64-byte aligned
    (see ``_ALIGNMENT``), which the compiled kernels of
    :mod:`repro.sc.native` rely on for aligned vector loads.
    """

    __slots__ = ("_pools", "_total", "_peak")

    def __init__(self) -> None:
        self._pools: dict[object, np.ndarray] = {}
        # Running byte total of the retained buffers and its high-water
        # mark, maintained on grow so `nbytes` / `stats()` stay O(1) on
        # the observability read path.
        self._total = 0
        self._peak = 0

    def array(
        self, key: object, shape: tuple[int, ...], dtype=np.uint64
    ) -> np.ndarray:
        """A reusable uninitialised array of the given shape and dtype.

        Args:
            key: hashable identity of the call site / slot.  Requests under
                the same key share one backing buffer, so a key must never
                be live twice at the same time.
            shape: requested array shape.
            dtype: requested element type.

        Returns:
            A C-contiguous view of the cached buffer with exactly
            ``shape`` and ``dtype``; contents are undefined.
        """
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        raw = self._pools.get(key)
        if raw is None or raw.nbytes < nbytes:
            self._total -= raw.nbytes if raw is not None else 0
            # Over-allocate by one alignment unit and slice at the 64-byte
            # boundary; the slice (kept in the pool, holding its base
            # alive) is contiguous and aligned for every element dtype.
            capacity = max(nbytes, 1)
            base = np.empty(capacity + _ALIGNMENT, dtype=np.uint8)
            start = (-base.ctypes.data) % _ALIGNMENT
            raw = base[start : start + capacity]
            self._pools[key] = raw
            self._total += raw.nbytes
            if self._total > self._peak:
                self._peak = self._total
        return raw[:nbytes].view(dtype).reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently retained by the arena."""
        return self._total

    @property
    def peak_nbytes(self) -> int:
        """High-water mark of retained bytes (survives :meth:`clear`)."""
        return self._peak

    def stats(self) -> dict:
        """Arena statistics for the observability layer.

        Returns ``{"buffers", "nbytes", "peak_nbytes"}`` -- live buffer
        count, currently retained bytes, and the lifetime high-water
        mark.
        """
        return {
            "buffers": len(self._pools),
            "nbytes": self._total,
            "peak_nbytes": self._peak,
        }

    def __len__(self) -> int:
        return len(self._pools)

    def clear(self) -> None:
        """Drop every cached buffer (outstanding views keep theirs alive)."""
        self._pools.clear()
        self._total = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workspace(buffers={len(self)}, nbytes={self.nbytes})"
