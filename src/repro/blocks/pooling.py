"""Sorter-based average-pooling (sub-sampling) block (Algorithm 2).

The block emits exactly one output ``1`` for every ``M`` ones observed
across its ``M`` input streams, so the decoded output is the mean of the
decoded inputs -- an average pooling operation with far lower variance than
the MUX-based pooling of the prior CMOS work (which samples a single input
per cycle).

As with the feature-extraction block, the hardware is an ``M``-input bitonic
sorter plus a ``2M``-input merger with an ``M``-bit feedback vector, and the
binary data path reduces to a counter recurrence used as the fast model:

``k_t = ones(column_t) + s_{t-1}``,
``o_t = 1  iff  k_t >= M``,
``s_t = min(k_t - M * o_t, M)``.
"""

from __future__ import annotations

import numpy as np

from repro.aqfp.gates import add_sorter
from repro.aqfp.netlist import Netlist
from repro.blocks.batched import pooling_recurrence
from repro.blocks.hardware import BlockHardware, sorter_stage_costs
from repro.errors import ConfigurationError, ShapeError
from repro.sc.bitstream import Bitstream
from repro.sorting.bitonic import bitonic_merger, bitonic_sorter, sort_bits

__all__ = ["SorterAveragePoolingBlock"]


class SorterAveragePoolingBlock:
    """Average pooling over ``M`` bipolar stochastic streams.

    Args:
        n_inputs: number of pooled streams ``M`` (e.g. 4 for 2x2 pooling).
    """

    def __init__(self, n_inputs: int) -> None:
        if n_inputs < 1:
            raise ConfigurationError(f"n_inputs must be >= 1, got {n_inputs}")
        self._n_inputs = int(n_inputs)

    @property
    def n_inputs(self) -> int:
        """Number of pooled input streams."""
        return self._n_inputs

    # -- stream-level models -------------------------------------------------

    def _check(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim < 2:
            raise ShapeError("pooling input must have shape (..., M, N)")
        if bits.shape[-2] != self._n_inputs:
            raise ShapeError(
                f"expected {self._n_inputs} input streams, got {bits.shape[-2]}"
            )
        return bits

    def forward_bits(self, bits: np.ndarray) -> np.ndarray:
        """Pool raw input streams.

        Uses the closed form of the counter recurrence (see
        :func:`repro.blocks.batched.pooling_recurrence`), so any number of
        block instances is pooled in a handful of vectorised passes with no
        per-cycle loop; output is bit-identical to the hardware data path.

        Args:
            bits: 0/1 array of shape ``(..., M, N)``.

        Returns:
            0/1 array of shape ``(..., N)``: the pooled stream, whose decoded
            bipolar value approximates the mean of the decoded inputs.
        """
        bits = self._check(bits)
        # Column counts fit a byte for any realistic M; the narrow dtype
        # keeps the whole closed-form pipeline memory-bandwidth friendly.
        count_dtype = np.uint8 if self._n_inputs <= 255 else np.int64
        column_ones = bits.sum(axis=-2, dtype=count_dtype)
        return pooling_recurrence(column_ones, self._n_inputs)

    def forward_bits_reference(self, bits: np.ndarray) -> np.ndarray:
        """Literal per-cycle counter recurrence (legacy reference model).

        Kept for equivalence testing and as the "legacy uint8 path" baseline
        of ``benchmarks/bench_perf.py``; :meth:`forward_bits` is the fast
        closed-form implementation.
        """
        bits = self._check(bits)
        m = self._n_inputs
        length = bits.shape[-1]
        column_ones = bits.sum(axis=-2, dtype=np.int64)
        surplus = np.zeros(column_ones.shape[:-1], dtype=np.int64)
        output = np.empty(column_ones.shape, dtype=np.uint8)
        for t in range(length):
            k = column_ones[..., t] + surplus
            # int64, not the output's uint8: ``m * bit`` must hold M >= 256.
            bit = (k >= m).astype(np.int64)
            output[..., t] = bit
            surplus = np.minimum(k - m * bit, m)
        return output

    def forward_bits_sorted_vector(self, bits: np.ndarray) -> np.ndarray:
        """Bit-exact sorted-vector model of the hardware data path.

        Only supports a single block instance (shape ``(M, N)``); used to
        validate the counter recurrence of :meth:`forward_bits`.
        """
        bits = self._check(bits)
        if bits.ndim != 2:
            raise ShapeError("the sorted-vector model expects shape (M, N)")
        m, length = bits.shape
        feedback = np.zeros(m, dtype=np.uint8)
        output = np.empty(length, dtype=np.uint8)
        for t in range(length):
            column_sorted = sort_bits(bits[:, t], descending=True)
            merged = sort_bits(
                np.concatenate([column_sorted, feedback]), descending=True
            )
            # 1-indexed position M == 0-indexed M-1: one iff at least M ones.
            bit = merged[m - 1]
            output[t] = bit
            if bit:
                feedback = merged[m : 2 * m]
            else:
                feedback = merged[:m]
        return output

    def forward(self, streams: Bitstream | np.ndarray) -> Bitstream:
        """Pool a :class:`Bitstream` (or raw bits) of shape ``(..., M, N)``."""
        bits = streams.bits if isinstance(streams, Bitstream) else np.asarray(streams)
        return Bitstream._trusted(self.forward_bits(bits), "bipolar")

    def reference_output(self, input_values: np.ndarray) -> np.ndarray:
        """Exact real-valued output: the mean of the input values."""
        return np.asarray(input_values, dtype=np.float64).mean(axis=-1)

    # -- hardware --------------------------------------------------------------

    def hardware(self) -> BlockHardware:
        """Stage-level AQFP hardware estimate of this block."""
        m = self._n_inputs
        sorter = sorter_stage_costs(bitonic_sorter(m), "column-sorter")
        merger = sorter_stage_costs(bitonic_merger(2 * m), "feedback-merger")
        # The feedback-select multiplexer is one extra phase of M AND/OR pairs.
        mux = BlockHardware("feedback-mux", jj_count=12 * m + 4, depth_phases=2)
        return sorter.combine(merger).combine(mux, name=f"avg-pool-{m}")

    def build_netlist(self, name: str = "avg_pool") -> Netlist:
        """Explicit gate-level netlist of one cycle of the data path.

        Outputs: the decision bit (sorted position ``M - 1``) followed by the
        two candidate feedback vectors (upper half then lower half of the
        merged sort); the surrounding pipeline selects between them using the
        decision bit.
        """
        m = self._n_inputs
        netlist = Netlist(name)
        inputs = [netlist.add_input(f"in{i}") for i in range(m)]
        feedback = [netlist.add_input(f"fb{i}") for i in range(m)]
        sorted_column = add_sorter(
            netlist, inputs, bitonic_sorter(m, descending=False), f"{name}.sort"
        )
        merged = add_sorter(
            netlist, sorted_column + feedback, bitonic_merger(2 * m), f"{name}.merge"
        )
        outputs = [merged[m - 1]] + merged[:m] + merged[m : 2 * m]
        netlist.set_outputs(outputs)
        return netlist
