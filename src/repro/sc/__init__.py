"""Stochastic-computing substrate.

Everything that is generic stochastic computing (independent of AQFP or
CMOS) lives here: encoding/decoding between real values and bit streams,
stochastic number generators, the elementary SC arithmetic gates (XNOR and
AND multipliers, MUX adders), the approximate parallel counter and the
Btanh finite-state-machine activation used by the CMOS baseline, and the
stream-correlation metrics used in the analysis.

A stream has two representations: the byte-per-bit :class:`Bitstream` of
the block reference models, and a raw ``uint64`` word array (64 stream
bits per word, layout and tail rule in :mod:`repro.sc.packed`) that the
bit-exact data plane and the compiled kernels run on.  :func:`pack_bits`
and :func:`unpack_bits` convert between them.
"""

from repro.sc.apc import approximate_parallel_counter, exact_parallel_count
from repro.sc.bitstream import Bitstream
from repro.sc.correlation import stochastic_cross_correlation
from repro.sc.encoding import (
    BIPOLAR,
    UNIPOLAR,
    bipolar_decode,
    bipolar_encode_probability,
    unipolar_decode,
    unipolar_encode_probability,
)
from repro.sc.fsm import BtanhFsm
from repro.sc.packed import pack_bits, unpack_bits
from repro.sc.ops import (
    and_multiply,
    mux_add,
    mux_scaled_add,
    or_gate,
    xnor_multiply,
)
from repro.sc.sng import StochasticNumberGenerator

__all__ = [
    "Bitstream",
    "pack_bits",
    "unpack_bits",
    "BIPOLAR",
    "UNIPOLAR",
    "bipolar_encode_probability",
    "bipolar_decode",
    "unipolar_encode_probability",
    "unipolar_decode",
    "StochasticNumberGenerator",
    "xnor_multiply",
    "and_multiply",
    "mux_add",
    "mux_scaled_add",
    "or_gate",
    "approximate_parallel_counter",
    "exact_parallel_count",
    "BtanhFsm",
    "stochastic_cross_correlation",
]
