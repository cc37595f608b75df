"""Tests for repro.sc: encoding, bit streams, SNG, ops, APC, FSM, correlation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from nets import tiny_cnn

from repro.errors import ConfigurationError, EncodingError, ShapeError
from repro.nn.sc_layers import ScNetworkMapper
from repro.rng import AqfpTrueRng, Lfsr
from repro.sc import (
    Bitstream,
    BtanhFsm,
    StochasticNumberGenerator,
    and_multiply,
    approximate_parallel_counter,
    bipolar_decode,
    bipolar_encode_probability,
    exact_parallel_count,
    mux_add,
    mux_scaled_add,
    or_gate,
    stochastic_cross_correlation,
    unipolar_encode_probability,
    xnor_multiply,
)
from repro.sc.apc import apc_inner_product
from repro.sc.correlation import multiplication_error
from repro.sc.fsm import btanh_state_count
from repro.sc.packed import pack_bits, words_for_length
from repro.sc.sng import quantize_to_levels


class TestEncoding:
    def test_bipolar_roundtrip(self):
        values = np.linspace(-1, 1, 11)
        assert np.allclose(bipolar_decode(bipolar_encode_probability(values)), values)

    def test_bipolar_range_check(self):
        with pytest.raises(EncodingError):
            bipolar_encode_probability(1.5)

    def test_unipolar_range_check(self):
        with pytest.raises(EncodingError):
            unipolar_encode_probability(-0.2)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_bipolar_probability_in_unit_interval(self, value):
        p = bipolar_encode_probability(value)
        assert 0.0 <= float(p) <= 1.0


class TestBitstream:
    def test_rejects_non_binary(self):
        with pytest.raises(EncodingError):
            Bitstream(np.array([0, 2, 1]))

    def test_rejects_scalar(self):
        with pytest.raises(ShapeError):
            Bitstream(np.array(1))

    def test_from_values_decodes_back(self, rng):
        values = np.array([-0.8, -0.2, 0.0, 0.4, 0.9])
        stream = Bitstream.from_values(values, 8192, rng)
        assert np.allclose(stream.to_values(), values, atol=0.05)

    def test_unipolar_decoding(self, rng):
        stream = Bitstream.from_values(np.array([0.25, 0.75]), 8192, rng, "unipolar")
        assert np.allclose(stream.to_values(), [0.25, 0.75], atol=0.05)

    def test_constant_zero_value_stream(self):
        stream = Bitstream.constant_zero_value(100)
        assert stream.to_values() == pytest.approx(0.0)
        assert stream.length == 100

    def test_probability_bounds_checked(self, rng):
        with pytest.raises(EncodingError):
            Bitstream.from_probabilities(np.array([1.2]), 16, rng)

    def test_stack_requires_matching_length(self, rng):
        a = Bitstream.from_values(0.0, 16, rng)
        b = Bitstream.from_values(0.0, 32, rng)
        with pytest.raises(ShapeError):
            a.stack([b])

    def test_stack_and_select(self, rng):
        a = Bitstream.from_values(0.5, 64, rng)
        b = Bitstream.from_values(-0.5, 64, rng)
        stacked = a.stack([b])
        assert stacked.value_shape == (2,)
        assert np.array_equal(stacked.select(1).bits, b.bits)

    def test_reshape_values(self, rng):
        stream = Bitstream.from_values(np.zeros(6), 8, rng)
        assert stream.reshape_values((2, 3)).bits.shape == (2, 3, 8)

    def test_absolute_error(self, rng):
        stream = Bitstream.from_values(np.array([0.5]), 4096, rng)
        assert stream.absolute_error(np.array([0.5]))[0] < 0.05


class TestSng:
    def test_generate_matches_values(self):
        sng = StochasticNumberGenerator(AqfpTrueRng(10, seed=1))
        values = np.array([-0.75, -0.25, 0.0, 0.5, 0.95])
        stream = sng.generate(values, 8192)
        assert np.allclose(stream.to_values(), values, atol=0.05)

    def test_lfsr_source_also_works(self):
        sng = StochasticNumberGenerator(Lfsr(10, seed=3))
        stream = sng.generate(np.array([0.5]), 1023)
        assert stream.to_values()[0] == pytest.approx(0.5, abs=0.05)

    def test_expected_value_is_quantized(self):
        sng = StochasticNumberGenerator(AqfpTrueRng(4, seed=1))
        expected = sng.expected_value(np.array([0.3]))
        # 4-bit quantisation cannot represent 0.3 exactly but must be close.
        assert expected[0] == pytest.approx(0.3, abs=2 / 16)

    def test_threshold_quantization_monotone(self):
        levels = quantize_to_levels(np.linspace(-1, 1, 21), 8, "bipolar")
        assert np.all(np.diff(levels) >= 0)

    def test_invalid_length(self):
        sng = StochasticNumberGenerator(AqfpTrueRng(8, seed=1))
        with pytest.raises(ShapeError):
            sng.generate(np.array([0.0]), 0)

    def test_shared_words_shape_check(self):
        sng = StochasticNumberGenerator(AqfpTrueRng(8, seed=1))
        with pytest.raises(ShapeError):
            sng.generate_from_shared_words(np.zeros(3), np.zeros((2, 16)))

    def test_generate_from_shared_words(self):
        sng = StochasticNumberGenerator(AqfpTrueRng(8, seed=2))
        words = AqfpTrueRng(8, seed=9).words((3, 4096))
        stream = sng.generate_from_shared_words(np.array([-0.5, 0.0, 0.5]), words)
        assert np.allclose(stream.to_values(), [-0.5, 0.0, 0.5], atol=0.06)


class TestOps:
    def test_xnor_is_bipolar_multiplication(self, rng):
        a_val, b_val = 0.6, -0.4
        a = Bitstream.from_values(a_val, 16384, rng)
        b = Bitstream.from_values(b_val, 16384, rng)
        product = xnor_multiply(a, b)
        assert product.to_values() == pytest.approx(a_val * b_val, abs=0.05)

    def test_and_is_unipolar_multiplication(self, rng):
        a = Bitstream.from_values(0.7, 16384, rng, "unipolar")
        b = Bitstream.from_values(0.5, 16384, rng, "unipolar")
        assert and_multiply(a, b).to_values() == pytest.approx(0.35, abs=0.05)

    def test_or_gate_is_elementwise_max(self):
        a = np.array([0, 0, 1, 1], dtype=np.uint8)
        b = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert np.array_equal(or_gate(a, b), np.array([0, 1, 1, 1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            xnor_multiply(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))

    def test_mux_add_computes_mean(self, rng):
        values = np.array([0.8, -0.8, 0.4, -0.4])
        streams = Bitstream.from_values(values, 16384, rng)
        result = mux_scaled_add(streams, rng)
        assert result.to_values() == pytest.approx(values.mean(), abs=0.05)

    def test_mux_add_select_validation(self, rng):
        streams = Bitstream.from_values(np.zeros(2), 16, rng)
        with pytest.raises(ShapeError):
            mux_add(streams, np.full(16, 5))

    def test_mux_add_requires_input_axis(self, rng):
        with pytest.raises(ShapeError):
            mux_scaled_add(np.zeros(8, dtype=np.uint8), rng)


class TestApc:
    def test_exact_count(self):
        bits = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)
        assert np.array_equal(exact_parallel_count(bits), np.array([2, 2]))

    def test_approximate_close_to_exact(self, rng):
        bits = (rng.random((32, 2048)) < 0.5).astype(np.uint8)
        exact = exact_parallel_count(bits)
        approx = approximate_parallel_counter(bits)
        # The OR approximation can only under-count, by less than M/8 a cycle.
        assert np.all(approx <= exact)
        assert (exact - approx).mean() < 32 / 8

    def test_single_input_passthrough(self):
        bits = np.array([[1, 0, 1]], dtype=np.uint8)
        assert np.array_equal(approximate_parallel_counter(bits), bits[0])

    def test_inner_product_estimate(self, rng):
        values = rng.uniform(-1, 1, 16)
        p = (values + 1) / 2
        bits = (rng.random((16, 8192)) < p[:, None]).astype(np.uint8)
        estimate = apc_inner_product(bits)
        assert estimate == pytest.approx(values.sum(), abs=0.8)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            exact_parallel_count(np.zeros(4, dtype=np.uint8))


class TestBtanhFsm:
    def test_state_count_heuristic(self):
        assert btanh_state_count(16) % 2 == 0
        assert btanh_state_count(1) >= 4
        with pytest.raises(ConfigurationError):
            btanh_state_count(0)

    def test_invalid_state_count(self):
        with pytest.raises(ConfigurationError):
            BtanhFsm(5)

    def test_transfer_curve_is_monotone_and_odd(self, rng):
        fsm = BtanhFsm(16)
        values = np.linspace(-0.9, 0.9, 7)
        curve = fsm.transfer_curve(values, 8192, rng)
        assert np.all(np.diff(curve) > -0.05)
        assert curve[0] < -0.5 and curve[-1] > 0.5

    def test_saturates_for_constant_input(self):
        fsm = BtanhFsm(8)
        out = fsm.transform(np.ones((1, 256), dtype=np.uint8))
        assert out[:, 32:].mean() == pytest.approx(1.0)


class TestCorrelation:
    def test_independent_streams_have_low_scc(self, rng):
        a = (rng.random(16384) < 0.5).astype(np.uint8)
        b = (rng.random(16384) < 0.5).astype(np.uint8)
        assert abs(stochastic_cross_correlation(a, b)) < 0.05

    def test_identical_streams_have_scc_one(self, rng):
        a = (rng.random(4096) < 0.5).astype(np.uint8)
        assert stochastic_cross_correlation(a, a) == pytest.approx(1.0, abs=0.05)

    def test_complementary_streams_have_negative_scc(self, rng):
        a = (rng.random(4096) < 0.5).astype(np.uint8)
        assert stochastic_cross_correlation(a, 1 - a) == pytest.approx(-1.0, abs=0.05)

    def test_correlated_operands_increase_multiplication_error(self, rng):
        a = (rng.random(8192) < 0.75).astype(np.uint8)
        independent = (rng.random(8192) < 0.75).astype(np.uint8)
        assert multiplication_error(a, a) > multiplication_error(a, independent) + 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            stochastic_cross_correlation(np.zeros(4), np.zeros(5))


class TestGeneratePacked:
    """Word-direct SNG: the mapper's draw-chunked compare-and-pack is
    bit-identical to packing the byte-per-bit SNG's streams."""

    @pytest.mark.parametrize("length", [100, 1000, 64, 1024])
    @pytest.mark.parametrize("cycle_chunk", [64, 256, 8192])
    def test_bit_identical_to_generate(self, length, cycle_chunk):
        mapper = ScNetworkMapper(tiny_cnn(), stream_length=length, seed=7)
        # At most ``cycle_chunk`` float64 draws live at once (but one
        # whole stream), so long streams split the tensor into chunks.
        mapper._DRAWS_BYTES_BUDGET = 8 * cycle_chunk
        weights = np.linspace(-1.0, 1.0, 9).reshape(3, 3)
        reference = np.random.default_rng(17)
        direct = np.random.default_rng(17)
        expected = pack_bits(mapper.weight_stream_bits(weights, reference))
        got = mapper.weight_stream_words(weights, direct)
        assert got.shape == (3, 3, words_for_length(length))
        assert np.array_equal(got, expected)
        # Both consumed the same number of draws.
        assert direct.bit_generator.state == reference.bit_generator.state

    def test_draw_chunks_are_never_alive_together(self):
        # 4096 weights at N=1024 draw 32 MiB in two 16 MiB chunks; the
        # second is drawn only once the first is freed.
        mapper = ScNetworkMapper(tiny_cnn(), stream_length=1024, seed=7)
        weights = np.random.default_rng(3).uniform(-1.0, 1.0, (64, 64))
        tracemalloc.start()
        try:
            mapper.weight_stream_words(weights, np.random.default_rng(17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
