"""Kernel-tier invocation counters for the packed data plane.

Every call through the packed backend's kernel seam
(``_fused_counts`` / ``_fused_chain`` / ``_stream_words`` /
``_recurrence_words``) records *which kernel* ran, on *which tier*
(``"native"`` for the compiled cffi kernels, ``"numpy"`` for the
reference implementations), how long it took and how many output bytes
it produced.  Each backend instance owns a :class:`KernelCounters`
(surfaced through ``Backend.kernel_snapshot()`` and the serving layer's
``snapshot()["kernels"]``).

The counters are deliberately coarse: one lock acquisition per kernel
invocation, where an invocation is a chunked fused reduction costing
hundreds of microseconds at minimum -- the bookkeeping is noise next to
the work it measures.
"""

from __future__ import annotations

import threading

__all__ = ["KernelCounters", "merge_kernel_snapshots"]


class KernelCounters:
    """Thread-safe per-kernel, per-tier call/time/byte totals."""

    __slots__ = ("_lock", "_cells")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (kernel, tier) -> [calls, seconds, bytes]
        self._cells: dict[tuple[str, str], list] = {}

    def record(
        self, kernel: str, tier: str, seconds: float, nbytes: int
    ) -> None:
        """Fold one kernel invocation into the totals.

        Args:
            kernel: seam name (``"fused_counts"``, ``"fused_chain"``,
                ``"stream_words"``, ``"recurrence_words"``).
            tier: ``"native"`` or ``"numpy"``.
            seconds: wall time of the invocation.
            nbytes: bytes of output the invocation produced.
        """
        key = (kernel, tier)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = [0, 0.0, 0]
            cell[0] += 1
            cell[1] += float(seconds)
            cell[2] += int(nbytes)

    def reset(self) -> None:
        """Zero every counter (test hook)."""
        with self._lock:
            self._cells.clear()

    def snapshot(self) -> dict:
        """``{kernel: {tier: {"calls", "seconds", "bytes"}}}`` totals."""
        with self._lock:
            cells = {key: list(cell) for key, cell in self._cells.items()}
        result: dict[str, dict] = {}
        for (kernel, tier), (calls, seconds, nbytes) in sorted(cells.items()):
            result.setdefault(kernel, {})[tier] = {
                "calls": calls,
                "seconds": seconds,
                "bytes": nbytes,
            }
        return result

    def totals(self) -> dict:
        """Per-kernel ``{"calls", "bytes"}`` summed across tiers.

        The tier-equivalence invariant tests compare these: the same
        workload must drive the same kernels with the same output bytes
        whether the calls landed on the native or the NumPy tier.
        """
        return _totals(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelCounters({self.snapshot()!r})"


def _totals(snapshot: dict) -> dict:
    result: dict[str, dict] = {}
    for kernel, tiers in snapshot.items():
        calls = sum(cell["calls"] for cell in tiers.values())
        nbytes = sum(cell["bytes"] for cell in tiers.values())
        result[kernel] = {"calls": calls, "bytes": nbytes}
    return result


def merge_kernel_snapshots(snapshots) -> dict:
    """Merge per-replica :meth:`KernelCounters.snapshot` dicts into one."""
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for kernel, tiers in snapshot.items():
            for tier, cell in tiers.items():
                slot = merged.setdefault(kernel, {}).setdefault(
                    tier, {"calls": 0, "seconds": 0.0, "bytes": 0}
                )
                slot["calls"] += cell["calls"]
                slot["seconds"] += cell["seconds"]
                slot["bytes"] += cell["bytes"]
    return merged
