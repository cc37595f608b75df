"""Equivalence tests: packed kernels and batched recurrences vs legacy paths.

The word-packed engine and the batched block kernels are pure
re-representations of the same hardware: every test here asserts
*bit-identical* output against the byte-per-bit / per-instance reference
implementations, across shapes, encodings, odd stream lengths (tail words
shorter than 64 bits) and both feature-extraction feedback modes.
"""

import tracemalloc

import numpy as np
import pytest
from nets import tiny_cnn

from repro.blocks.categorization import MajorityChainCategorizationBlock
from repro.blocks.feature_extraction import SorterFeatureExtractionBlock
from repro.blocks.pooling import SorterAveragePoolingBlock
from repro.errors import EncodingError, ShapeError
from repro.nn.sc_layers import ScNetworkMapper
from repro.rng.lfsr import Lfsr
from repro.sc import native
from repro.sc.bitstream import Bitstream
from repro.sc.ops import and_multiply, mux_add, mux_scaled_add, or_gate, xnor_multiply
from repro.sc.packed import (
    ones_count,
    pack_bits,
    packed_xnor,
    tail_mask,
    unpack_bits,
    words_for_length,
)

#: Shapes exercising leading value axes and non-multiple-of-64 tail words.
SHAPES = [(1,), (63,), (64,), (65,), (3, 130), (2, 3, 64), (4, 200), (5, 1)]


def random_bits(rng, shape):
    return rng.integers(0, 2, shape, dtype=np.uint8)


class TestPackUnpack:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_roundtrip(self, rng, shape):
        bits = random_bits(rng, shape)
        words = pack_bits(bits)
        assert words.shape == shape[:-1] + (words_for_length(shape[-1]),)
        assert np.array_equal(unpack_bits(words, shape[-1]), bits)

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 127, 130])
    def test_tail_words_are_masked(self, rng, length):
        bits = np.ones(length, dtype=np.uint8)
        words = pack_bits(bits)
        assert words[-1] == tail_mask(length)

    def test_popcount_decode_matches_unpacked(self, rng):
        bits = random_bits(rng, (4, 333))
        assert np.array_equal(ones_count(pack_bits(bits)), bits.sum(axis=-1))

    def test_boolean_input_packs_without_a_byte_copy(self, rng):
        # The mapper's NumPy SNG packs `draws < p` each chunk: the words
        # (1 MiB here) and the packed bytes are the only transients, not
        # a uint8 copy of the 8 MiB of booleans.
        bits = random_bits(rng, (8192, 1000)).astype(bool)
        tracemalloc.start()
        try:
            words = pack_bits(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.array_equal(unpack_bits(words, 1000), bits)

    def test_float_input_is_rejected(self):
        with pytest.raises(EncodingError):
            pack_bits(np.ones(8))


class TestPackedOps:
    """Raw-word gates match the byte-per-bit ops of :mod:`repro.sc.ops`."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_xnor_matches_uint8_path(self, rng, shape):
        a, b = random_bits(rng, shape), random_bits(rng, shape)
        legacy = xnor_multiply(Bitstream(a), Bitstream(b))
        words = packed_xnor(pack_bits(a), pack_bits(b), shape[-1])
        assert np.array_equal(unpack_bits(words, shape[-1]), legacy.bits)
        # The XNOR negates, so the kernel must re-mask the tail word.
        assert np.array_equal(ones_count(words), legacy.bits.sum(axis=-1))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_and_or_match_uint8_path(self, rng, shape):
        # AND and OR need no kernel: word-wise & and | keep the tail clean.
        a, b = random_bits(rng, shape), random_bits(rng, shape)
        wa, wb = pack_bits(a), pack_bits(b)
        assert np.array_equal(
            unpack_bits(wa & wb, shape[-1]), and_multiply(a, b).bits
        )
        assert np.array_equal(unpack_bits(wa | wb, shape[-1]), or_gate(a, b))
        assert np.array_equal(ones_count(wa | wb), or_gate(a, b).sum(axis=-1))

    def test_length_mismatch_rejected(self, rng):
        a = random_bits(rng, (64,))
        b = random_bits(rng, (65,))
        for op in (xnor_multiply, and_multiply, or_gate):
            with pytest.raises(ShapeError):
                op(a, b)

    def test_mux_add_broadcast_select(self, rng):
        bits = random_bits(rng, (3, 2, 80))
        select = rng.integers(0, 3, (80,))
        out = mux_add(Bitstream(bits), select)
        cycles = np.arange(80)
        for row in range(2):
            assert np.array_equal(out.bits[row], bits[select, row, cycles])
        full = np.broadcast_to(select, (2, 80))
        assert np.array_equal(mux_add(bits, full).bits, out.bits)

    def test_mux_add_rejects_out_of_range_select(self, rng):
        bits = random_bits(rng, (2, 64))
        with pytest.raises(ShapeError):
            mux_add(bits, np.full(64, 5))

    def test_mux_scaled_add_same_rng_matches(self, rng):
        bits = random_bits(rng, (4, 3, 120))
        scaled = mux_scaled_add(Bitstream(bits), np.random.default_rng(7))
        select = np.random.default_rng(7).integers(0, 4, size=(3, 120))
        assert np.array_equal(scaled.bits, mux_add(bits, select).bits)

    def test_value_shape_mismatch_rejected(self, rng):
        # Same ndim but different (broadcastable) value shapes must raise,
        # not silently broadcast.
        a = random_bits(rng, (2, 1, 64))
        b = random_bits(rng, (1, 3, 64))
        for op in (xnor_multiply, and_multiply, or_gate):
            with pytest.raises(ShapeError):
                op(a, b)
            with pytest.raises(ShapeError):
                op(Bitstream(a), Bitstream(b))

    def test_raw_array_operands_still_validated(self):
        # The bitwise kernels must not silently accept non-binary arrays
        # the way np.logical_* used to normalise them.
        with pytest.raises(EncodingError):
            and_multiply(np.array([[2]]), np.array([[3]]))
        with pytest.raises(EncodingError):
            xnor_multiply(np.array([0.5, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(EncodingError):
            or_gate(Bitstream(np.array([[0, 1]])), np.array([[2, 3]]))

    def test_structural_helpers_return_copies(self, rng):
        bits = random_bits(rng, (2, 40))
        stream = Bitstream(bits)
        sub = stream.select(0)
        sub.bits[:] = 0
        assert np.array_equal(stream.bits, bits)  # parent unchanged
        reshaped = stream.reshape_values((2, 1))
        reshaped.bits[:] = 0
        assert np.array_equal(stream.bits, bits)


class TestBitstreamValidation:
    def test_rejects_out_of_range_integers(self):
        with pytest.raises(EncodingError):
            Bitstream(np.array([0, 1, 2]))
        with pytest.raises(EncodingError):
            Bitstream(np.array([-1, 0, 1]))

    def test_rejects_fractional_floats(self):
        with pytest.raises(EncodingError):
            Bitstream(np.array([0.0, 0.5, 1.0]))

    def test_accepts_bool_and_integral_floats(self):
        assert Bitstream(np.array([True, False])).length == 2
        assert np.array_equal(
            Bitstream(np.array([0.0, 1.0, 1.0])).bits, [0, 1, 1]
        )


class TestPoolingClosedForm:
    @pytest.mark.parametrize("m", [1, 2, 4, 9, 16])
    @pytest.mark.parametrize("length", [1, 65, 257])
    def test_matches_reference_loop(self, rng, m, length):
        block = SorterAveragePoolingBlock(m)
        bits = random_bits(rng, (5, m, length))
        assert np.array_equal(
            block.forward_bits(bits), block.forward_bits_reference(bits)
        )

    def test_matches_sorted_vector_model(self, rng):
        block = SorterAveragePoolingBlock(4)
        bits = random_bits(rng, (4, 200))
        assert np.array_equal(
            block.forward_bits(bits), block.forward_bits_sorted_vector(bits)
        )

    def test_deep_batch_axes(self, rng):
        block = SorterAveragePoolingBlock(4)
        bits = random_bits(rng, (2, 3, 4, 4, 100))
        out = block.forward_bits(bits)
        assert out.shape == (2, 3, 4, 100)
        assert np.array_equal(out, block.forward_bits_reference(bits))


class TestFeatureExtractionBatched:
    @pytest.mark.parametrize("feedback_mode", ["signed", "unsigned"])
    @pytest.mark.parametrize("m", [3, 8, 9])
    @pytest.mark.parametrize("length", [63, 64, 200])
    def test_batch_matches_per_instance(self, rng, feedback_mode, m, length):
        block = SorterFeatureExtractionBlock(m, feedback_mode=feedback_mode)
        products = random_bits(rng, (6, m, length))
        batched = block.forward_products(products)
        singles = np.stack([block.forward_products(p) for p in products])
        assert np.array_equal(batched, singles)

    @pytest.mark.parametrize("feedback_mode", ["signed", "unsigned"])
    def test_matches_sorted_vector_model(self, rng, feedback_mode):
        block = SorterFeatureExtractionBlock(9, feedback_mode=feedback_mode)
        products = random_bits(rng, (9, 150))
        assert np.array_equal(
            block.forward_products(products),
            block.forward_products_sorted_vector(products),
        )

    def test_transfer_curve_cache_key_includes_feedback_mode(self):
        from repro.blocks.feature_extraction import SorterTransferCurve

        signed = SorterTransferCurve.cached(
            5, n_points=17, stream_length=256, feedback_mode="signed"
        )
        unsigned = SorterTransferCurve.cached(
            5, n_points=17, stream_length=256, feedback_mode="unsigned"
        )
        assert signed is not unsigned
        assert signed is SorterTransferCurve.cached(
            5, n_points=17, stream_length=256, feedback_mode="signed"
        )


class TestMajorityChainPacked:
    @staticmethod
    def reference_chain(products):
        """Naive arithmetic majority chain (pre-packing reference)."""

        def maj3(a, b, c):
            return (
                (a.astype(np.int64) + b.astype(np.int64) + c.astype(np.int64)) >= 2
            ).astype(np.uint8)

        k = products.shape[-2]
        if k == 1:
            return products[..., 0, :]
        if k == 2:
            return products[..., 0, :] & products[..., 1, :]
        acc = maj3(products[..., 0, :], products[..., 1, :], products[..., 2, :])
        index = 3
        while index < k:
            if index + 1 < k:
                acc = maj3(acc, products[..., index, :], products[..., index + 1, :])
                index += 2
            else:
                acc = maj3(acc, products[..., index, :], np.zeros_like(acc))
                index += 1
        return acc

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 17, 64])
    @pytest.mark.parametrize("length", [63, 100, 200])
    def test_matches_reference(self, rng, k, length):
        block = MajorityChainCategorizationBlock(k)
        products = random_bits(rng, (3, k, length))
        assert np.array_equal(
            block.forward_products(products), self.reference_chain(products)
        )


class TestLfsrVectorizedWords:
    @staticmethod
    def reference_words(lfsr, count):
        out = np.empty(count, dtype=np.int64)
        for i in range(count):
            out[i] = lfsr.step()
        return out

    @pytest.mark.parametrize("n_bits", [3, 5, 8, 10, 16])
    @pytest.mark.parametrize("count", [1, 7, 64, 1000])
    def test_matches_step_loop(self, n_bits, count):
        fast, slow = Lfsr(n_bits, seed=5), Lfsr(n_bits, seed=5)
        assert np.array_equal(fast.words(count), self.reference_words(slow, count))
        assert fast.state == slow.state

    def test_custom_short_taps(self):
        fast, slow = Lfsr(8, seed=7, taps=(3, 2)), Lfsr(8, seed=7, taps=(3, 2))
        assert np.array_equal(fast.words(500), self.reference_words(slow, 500))
        assert fast.state == slow.state

    def test_incremental_draws_continue_sequence(self):
        fast, slow = Lfsr(10, seed=9), Lfsr(10, seed=9)
        got = np.concatenate([fast.words(13), fast.words(7), fast.words(450)])
        assert np.array_equal(got, self.reference_words(slow, 470))

    def test_zero_count_leaves_state(self):
        lfsr = Lfsr(8, seed=3)
        before = lfsr.state
        assert lfsr.words(0).size == 0
        assert lfsr.state == before


# -- out=-capable kernels and fused reductions ---------------------------------


from repro.sc.packed import (  # noqa: E402  (grouped with their tests)
    _popcount_words_fallback,
    count_dtype,
    fused_xnor_column_counts,
    fused_xnor_majority_chain,
    majority_chain_words,
    packed_column_counts,
    popcount_words,
    unpack_bits_into,
)
from repro.workspace import Workspace

#: Stream lengths with non-trivial tail words (and one aligned control).
TAIL_LENGTHS = [100, 1000, 128]


class TestOutKernels:
    """The out=-capable gate kernels match their allocating forms exactly."""

    @pytest.mark.parametrize("length", TAIL_LENGTHS)
    def test_xnor_out(self, rng, length):
        a = pack_bits(random_bits(rng, (5, length)))
        b = pack_bits(random_bits(rng, (5, length)))
        expected = packed_xnor(a, b, length)
        out = np.empty_like(a)
        result = packed_xnor(a, b, length, out=out)
        assert result is out
        assert np.array_equal(out, expected)
        # Tail bits of the XNOR (which negates) must stay zero.
        assert not np.any(out[..., -1] & ~tail_mask(length))

    @pytest.mark.parametrize("length", TAIL_LENGTHS)
    def test_column_counts_out(self, rng, length):
        # Every count width the dtype rule produces (M = 255 tops uint8,
        # M = 256 needs bit 8), into out= of each width that holds it.
        for m in (1, 2, 3, 16, 17, 255, 256):
            bits = random_bits(rng, (3, m, length))
            bits[0] = 1  # the top count, in every level plane
            expected = bits.sum(axis=-2)
            words = pack_bits(bits)
            counts = packed_column_counts(words, length)
            assert counts.dtype == count_dtype(m)
            assert np.array_equal(counts, expected)
            for dtype in (np.uint8, np.uint16, np.int64):
                out = np.empty((3, length), dtype=dtype)
                if np.iinfo(dtype).max < m:
                    with pytest.raises(ShapeError, match="cannot represent"):
                        packed_column_counts(words, length, out=out)
                    continue
                assert packed_column_counts(words, length, out=out) is out
                assert np.array_equal(out, expected)
        with pytest.raises(ShapeError):
            packed_column_counts(
                words, length, out=np.empty((3, length + 1), dtype=np.uint8)
            )

    @pytest.mark.parametrize("m", [1, 3, 16, 256])
    def test_column_counts_strided_operands(self, rng, m):
        """A strided ``(..., M, W)`` view and a strided ``out`` decode the
        same counts as contiguous ones."""
        length = 130
        bits = random_bits(rng, (m, 4, length))
        words = pack_bits(bits).transpose(1, 0, 2)[::2]  # (2, M, W) view
        assert not words.flags.c_contiguous
        backing = np.full((2, 2 * length), 7, dtype=np.int64)
        out = backing[:, ::2]
        packed_column_counts(words, length, out=out)
        assert np.array_equal(out, bits.sum(axis=0)[::2])
        assert np.all(backing[:, 1::2] == 7)

    def test_column_counts_rejects_word_count_mismatch(self, rng):
        words = pack_bits(random_bits(rng, (2, 3, 130)))
        with pytest.raises(ShapeError, match="cannot hold"):
            packed_column_counts(words, 200)


class TestUnpackBitsInto:
    @pytest.mark.parametrize("length", TAIL_LENGTHS)
    def test_matches_unpack_bits(self, rng, length):
        words = pack_bits(random_bits(rng, (2, 5, length)))
        padded = words.shape[-1] * 64
        out = np.empty(words.shape[:-1] + (padded,), dtype=np.uint8)
        assert unpack_bits_into(words, out) is out
        assert np.array_equal(out[..., :length], unpack_bits(words, length))
        # Tail positions beyond the stream are zero (tail-word invariant).
        assert not out[..., length:].any()

    def test_every_byte_value(self):
        # Stream byte i holds the value i: every byte pattern is spread
        # once, at each of the eight byte positions of a word.
        bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).ravel()
        out = np.empty(bits.size, dtype=np.uint8)
        unpack_bits_into(pack_bits(bits), out)
        assert np.array_equal(out, bits)

    def test_rejects_bad_out(self, rng):
        words = pack_bits(random_bits(rng, (3, 100)))
        with pytest.raises(ShapeError):
            unpack_bits_into(words, np.empty((3, 100), dtype=np.uint8))
        with pytest.raises(ShapeError):
            unpack_bits_into(
                words, np.empty((3, 2 * 64), dtype=np.uint16)
            )


class TestPopcountPaths:
    """np.bitwise_count fast path and the byte-LUT fallback agree."""

    def test_fallback_matches_primary(self, rng):
        words = rng.integers(0, 2**63, (4, 9), dtype=np.uint64)
        words[0, 0] = 0
        words[0, 1] = np.uint64(0xFFFFFFFFFFFFFFFF)
        assert np.array_equal(
            popcount_words(words), _popcount_words_fallback(words)
        )

    def test_fallback_matches_python_bit_count(self, rng):
        words = rng.integers(0, 2**63, 64, dtype=np.uint64)
        expected = np.array([int(w).bit_count() for w in words], dtype=np.uint64)
        assert np.array_equal(_popcount_words_fallback(words), expected)


class TestPackComparatorWords:
    """The mapper's SNG comparator core: given draws straight to words."""

    @pytest.mark.parametrize("length", TAIL_LENGTHS)
    def test_matches_comparator_bits(self, rng, length):
        mapper = ScNetworkMapper(tiny_cnn(), stream_length=length, seed=7)
        mapper._DRAWS_BYTES_BUDGET = 8 * 2 * length  # two values a chunk
        draws = rng.random((6, length))
        p = rng.random(6)
        words = mapper._packed_comparator_streams(p, draws)
        expected = (draws < p[:, None]).astype(np.uint8)
        assert np.array_equal(unpack_bits(words, length), expected)
        # Leading axes share the draws (the input SNG's batch axis).
        shared = mapper._packed_comparator_streams(np.stack([p, 1.0 - p]), draws)
        assert np.array_equal(shared[0], words)
        assert np.array_equal(
            unpack_bits(shared[1], length), draws < (1.0 - p)[:, None]
        )
        if native.available():
            compiled = mapper._packed_comparator_streams(
                p, draws, packer=native.pack_comparator_floats
            )
            assert np.array_equal(compiled, words)

    def test_rejects_mismatched_thresholds(self, rng):
        mapper = ScNetworkMapper(tiny_cnn(), stream_length=64, seed=7)
        with pytest.raises(ShapeError):
            mapper._packed_comparator_streams(rng.random(4), rng.random((3, 64)))


class TestFusedColumnCounts:
    """Streaming-CSA fusion is bit-identical to the materialised tree."""

    @pytest.mark.parametrize("length", TAIL_LENGTHS)
    @pytest.mark.parametrize("m", [1, 2, 3, 9, 10, 17])
    def test_matches_product_tree(self, rng, length, m):
        a = pack_bits(random_bits(rng, (4, m, length)))
        b = pack_bits(random_bits(rng, (4, m, length)))
        expected = packed_column_counts(packed_xnor(a, b, length), length)
        assert np.array_equal(
            fused_xnor_column_counts(a, b, length), expected
        )

    @pytest.mark.parametrize("length", TAIL_LENGTHS)
    def test_extra_planes_and_broadcast(self, rng, length):
        a = pack_bits(random_bits(rng, (3, 5, length)))  # (3, 5, W)
        b = pack_bits(random_bits(rng, (2, 1, 5, length)))  # (2, 1, 5, W)
        extra = pack_bits(random_bits(rng, (2, 3, 2, length)))
        w = a.shape[-1]
        products = packed_xnor(
            np.broadcast_to(a, (2, 3, 5, w)).copy(),
            np.broadcast_to(b, (2, 3, 5, w)).copy(),
            length,
        )
        expected = packed_column_counts(
            np.concatenate([products, extra], axis=-2), length
        )
        got = fused_xnor_column_counts(a, b, length, extra=extra)
        assert np.array_equal(got, expected)

    def test_out_and_workspace_reuse(self, rng):
        length = 1000
        workspace = Workspace()
        a = pack_bits(random_bits(rng, (4, 9, length)))
        b = pack_bits(random_bits(rng, (4, 9, length)))
        expected = packed_column_counts(packed_xnor(a, b, length), length)
        out = np.empty((4, length), dtype=np.uint8)
        got = fused_xnor_column_counts(
            a, b, length, out=out, workspace=workspace
        )
        assert got is out
        assert np.array_equal(out, expected)
        retained = workspace.nbytes
        # Steady state: a second identical call allocates nothing new.
        fused_xnor_column_counts(a, b, length, out=out, workspace=workspace)
        assert workspace.nbytes == retained
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("m", [300, 511, 700, 1568])
    def test_wide_counts_dtype(self, rng, m):
        # More than 255 streams forces uint16 counts (the wide-shift
        # path); m >= 511 exercises bit planes at exponent >= 9, which a
        # narrow shift would silently wrap (regression: FC-500-sized
        # layers came out garbage while small test nets passed).
        length = 100
        a = pack_bits(random_bits(rng, (2, m, length)))
        b = pack_bits(random_bits(rng, (2, m, length)))
        extra = pack_bits(random_bits(rng, (2, 1, length)))
        expected = packed_column_counts(
            np.concatenate([packed_xnor(a, b, length), extra], axis=-2),
            length,
        )
        got = fused_xnor_column_counts(a, b, length, extra=extra)
        assert got.dtype == np.uint16
        assert np.array_equal(got, expected)

    def test_rejects_mismatched_axes(self, rng):
        a = pack_bits(random_bits(rng, (2, 3, 128)))
        b = pack_bits(random_bits(rng, (2, 4, 128)))
        with pytest.raises(ShapeError):
            fused_xnor_column_counts(a, b, 128)

    def test_rejects_too_narrow_out(self, rng):
        # A uint8 out cannot hold counts of 300 streams; silent modular
        # wrap-around must be a loud error instead.
        length, m = 100, 300
        a = pack_bits(random_bits(rng, (1, m, length)))
        b = pack_bits(random_bits(rng, (1, m, length)))
        with pytest.raises(ShapeError):
            fused_xnor_column_counts(
                a, b, length, out=np.empty((1, length), dtype=np.uint8)
            )
        with pytest.raises(ShapeError):
            packed_column_counts(
                packed_xnor(a, b, length),
                length,
                out=np.empty((1, length), dtype=np.uint8),
            )


class TestFusedMajorityChain:
    @pytest.mark.parametrize("length", TAIL_LENGTHS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 9, 16])
    def test_matches_chain_over_products(self, rng, length, k):
        a = pack_bits(random_bits(rng, (3, k, length)))
        b = pack_bits(random_bits(rng, (2, 1, k, length)))
        w = a.shape[-1]
        expected = majority_chain_words(
            packed_xnor(
                np.broadcast_to(a, (2, 3, k, w)).copy(),
                np.broadcast_to(b, (2, 3, k, w)).copy(),
                length,
            )
        )
        workspace = Workspace()
        got = fused_xnor_majority_chain(a, b, length, workspace=workspace)
        assert np.array_equal(got, expected)
        out = np.empty((2, 3, w), dtype=np.uint64)
        assert (
            fused_xnor_majority_chain(
                a, b, length, out=out, workspace=workspace
            )
            is out
        )
        assert np.array_equal(out, expected)


class TestWorkspace:
    def test_reuse_and_growth(self):
        workspace = Workspace()
        first = workspace.array("k", (4, 8), np.uint64)
        first[...] = 7
        again = workspace.array("k", (4, 8), np.uint64)
        assert again.base is first.base  # same backing buffer
        smaller = workspace.array("k", (2, 8), np.uint64)
        assert smaller.base is first.base  # shrinking reuses capacity
        before = workspace.nbytes
        workspace.array("k", (8, 8), np.uint64)  # growth reallocates
        assert workspace.nbytes > before
        assert len(workspace) == 1
        workspace.clear()
        assert workspace.nbytes == 0

    def test_distinct_keys_are_distinct_buffers(self):
        workspace = Workspace()
        a = workspace.array(("x", 0), (16,), np.uint8)
        b = workspace.array(("x", 1), (16,), np.uint8)
        a[...] = 1
        b[...] = 2
        assert a.sum() == 16 and b.sum() == 32
