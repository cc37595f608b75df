"""Tests for repro.blocks: the paper's proposed blocks and the APC baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqfp import simulate
from repro.blocks import (
    ApcFeatureExtractionBlock,
    MajorityChainCategorizationBlock,
    SngBlock,
    SorterAveragePoolingBlock,
    SorterFeatureExtractionBlock,
    SorterTransferCurve,
    chain_output_probability,
    estimate_transfer_curve,
    sorter_activation,
)
from repro.blocks.feature_extraction import neutral_column
from repro.errors import ConfigurationError, ShapeError


def bipolar_streams(values, length, rng):
    p = (np.asarray(values, dtype=float) + 1.0) / 2.0
    return (rng.random(p.shape + (length,)) < p[..., None]).astype(np.uint8)


class TestFeatureExtraction:
    @pytest.mark.parametrize("m", [3, 5, 9, 10, 25])
    def test_counter_model_matches_sorted_vector_model(self, m, rng):
        block = SorterFeatureExtractionBlock(m)
        products = rng.integers(0, 2, (m, 256)).astype(np.uint8)
        assert np.array_equal(
            block.forward_products(products),
            block.forward_products_sorted_vector(products),
        )

    @pytest.mark.parametrize("mode", ["signed", "unsigned"])
    def test_models_match_in_both_feedback_modes(self, mode, rng):
        block = SorterFeatureExtractionBlock(9, feedback_mode=mode)
        products = rng.integers(0, 2, (9, 200)).astype(np.uint8)
        assert np.array_equal(
            block.forward_products(products),
            block.forward_products_sorted_vector(products),
        )

    def test_output_approximates_clipped_inner_product(self, rng):
        m, n = 25, 4096
        inputs = rng.uniform(-1, 1, m)
        weights = rng.uniform(-1, 1, m)
        block = SorterFeatureExtractionBlock(m)
        products = np.logical_not(
            np.logical_xor(
                bipolar_streams(inputs, n, rng), bipolar_streams(weights, n, rng)
            )
        ).astype(np.uint8)
        decoded = 2.0 * block.forward_products(products).mean() - 1.0
        target = np.clip((inputs * weights).sum(), -1, 1)
        assert abs(decoded - target) < 0.25

    def test_saturation_positive_and_negative(self, rng):
        m, n = 9, 2048
        block = SorterFeatureExtractionBlock(m)
        ones = np.ones((m, n), dtype=np.uint8)
        zeros = np.zeros((m, n), dtype=np.uint8)
        assert 2.0 * block.forward_products(ones).mean() - 1.0 > 0.95
        assert 2.0 * block.forward_products(zeros).mean() - 1.0 < -0.95

    def test_even_input_padding(self, rng):
        block = SorterFeatureExtractionBlock(4)
        assert block.effective_inputs == 5
        products = rng.integers(0, 2, (4, 128)).astype(np.uint8)
        out = block.forward_products(products)
        assert out.shape == (128,)

    def test_neutral_column_value_is_zero(self):
        column = neutral_column(256)
        assert column.mean() == pytest.approx(0.5)

    def test_batched_forward(self, rng):
        block = SorterFeatureExtractionBlock(9)
        products = rng.integers(0, 2, (4, 3, 9, 64)).astype(np.uint8)
        out = block.forward_products(products)
        assert out.shape == (4, 3, 64)
        # Every batch entry must match its own individual simulation.
        single = block.forward_products(products[2, 1])
        assert np.array_equal(out[2, 1], single)

    def test_forward_with_bias(self, rng):
        block = SorterFeatureExtractionBlock(9)
        x = bipolar_streams(rng.uniform(-1, 1, 9), 256, rng)
        w = bipolar_streams(rng.uniform(-1, 1, 9), 256, rng)
        bias = bipolar_streams(np.array([0.5]), 256, rng)
        out = block.forward(x, w, bias)
        assert out.bits.shape == (256,)

    def test_shape_validation(self, rng):
        block = SorterFeatureExtractionBlock(9)
        with pytest.raises(ShapeError):
            block.forward_products(rng.integers(0, 2, (5, 64)).astype(np.uint8))
        with pytest.raises(ShapeError):
            block.forward_products_sorted_vector(
                rng.integers(0, 2, (2, 9, 64)).astype(np.uint8)
            )

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SorterFeatureExtractionBlock(0)
        with pytest.raises(ConfigurationError):
            SorterFeatureExtractionBlock(9, feedback_mode="bogus")

    def test_reference_output_is_clip(self):
        block = SorterFeatureExtractionBlock(3)
        assert block.reference_output(np.array([0.8, 0.8, 0.8])) == pytest.approx(1.0)
        assert sorter_activation(-3.0) == pytest.approx(-1.0)

    def test_hardware_estimate_grows_with_inputs(self):
        small = SorterFeatureExtractionBlock(9).hardware()
        large = SorterFeatureExtractionBlock(81).hardware()
        assert large.jj_count > small.jj_count
        assert large.depth_phases > small.depth_phases

    def test_netlist_single_cycle_matches_model(self, rng):
        m = 5
        block = SorterFeatureExtractionBlock(m)
        netlist = block.build_netlist()
        x = rng.integers(0, 2, (m, 16)).astype(np.uint8)
        w = rng.integers(0, 2, (m, 16)).astype(np.uint8)
        feedback = np.zeros((m, 16), dtype=np.uint8)
        feedback[: (m - 1) // 2] = 1  # signed-mode initial accumulator
        stimulus = {}
        input_ids = netlist.inputs
        for index in range(m):
            stimulus[input_ids[index]] = x[index]
            stimulus[input_ids[m + index]] = w[index]
            stimulus[input_ids[2 * m + index]] = feedback[index]
        outputs = simulate(netlist, stimulus)
        products = np.logical_not(np.logical_xor(x, w)).astype(np.uint8)
        merged = np.sort(np.concatenate([products, feedback], axis=0), axis=0)[::-1]
        out_values = list(outputs.values())
        # First output is the output bit at sorted position m - 1.
        assert np.array_equal(out_values[0], merged[m - 1])

    def test_transfer_curve_monotone_and_saturating(self):
        curve = SorterTransferCurve(25, stream_length=2048)
        zs = np.linspace(-3.5, 3.5, 21)
        values = curve(zs)
        assert np.all(np.diff(values) >= -1e-9)
        assert values[0] < -0.9 and values[-1] > 0.9
        assert np.all(curve.derivative(zs) >= 0)

    def test_transfer_curve_cache(self):
        a = SorterTransferCurve.cached(9, stream_length=2048)
        b = SorterTransferCurve.cached(9, stream_length=2048)
        assert a is b

    def test_estimate_transfer_curve_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_transfer_curve(0, np.array([0.0]))


class TestPooling:
    @pytest.mark.parametrize("m", [2, 4, 9, 16])
    def test_counter_model_matches_sorted_vector_model(self, m, rng):
        block = SorterAveragePoolingBlock(m)
        bits = rng.integers(0, 2, (m, 256)).astype(np.uint8)
        assert np.array_equal(
            block.forward_bits(bits), block.forward_bits_sorted_vector(bits)
        )

    @pytest.mark.parametrize("m", [4, 9, 16])
    def test_output_is_mean_of_inputs(self, m, rng):
        block = SorterAveragePoolingBlock(m)
        values = rng.uniform(-1, 1, m)
        bits = bipolar_streams(values, 4096, rng)
        decoded = 2.0 * block.forward_bits(bits).mean() - 1.0
        assert decoded == pytest.approx(values.mean(), abs=0.05)

    def test_much_more_accurate_than_mux_pooling(self, rng):
        from repro.sc.ops import mux_scaled_add

        m, n = 9, 512
        values = rng.uniform(-1, 1, m)
        bits = bipolar_streams(values, n, rng)
        sorter_error = abs(
            2.0 * SorterAveragePoolingBlock(m).forward_bits(bits).mean() - 1.0
            - values.mean()
        )
        mux_errors = []
        for _ in range(10):
            mux_out = mux_scaled_add(bits, rng)
            mux_errors.append(abs(mux_out.to_values() - values.mean()))
        assert sorter_error < np.mean(mux_errors)

    def test_batched_forward(self, rng):
        block = SorterAveragePoolingBlock(4)
        bits = rng.integers(0, 2, (6, 4, 128)).astype(np.uint8)
        out = block.forward_bits(bits)
        assert out.shape == (6, 128)
        assert np.array_equal(out[3], block.forward_bits(bits[3]))

    def test_conservation_of_ones(self, rng):
        # One output 1 for every M input 1s (up to the feedback remainder).
        m, n = 4, 512
        block = SorterAveragePoolingBlock(m)
        bits = rng.integers(0, 2, (m, n)).astype(np.uint8)
        out = block.forward_bits(bits)
        total_in = int(bits.sum())
        total_out = int(out.sum())
        assert abs(total_out - total_in // m) <= 1

    def test_shape_validation(self, rng):
        block = SorterAveragePoolingBlock(4)
        with pytest.raises(ShapeError):
            block.forward_bits(rng.integers(0, 2, (3, 64)).astype(np.uint8))

    def test_reference_loop_holds_256_inputs(self, rng):
        # A 16 x 16 window: M = 256 does not fit a uint8, so the loop's
        # ``M * bit`` must be computed wider than its output bits.
        block = SorterAveragePoolingBlock(256)
        bits = rng.integers(0, 2, (256, 96)).astype(np.uint8)
        bits[:, :8] = 1  # whole columns of ones: the counter fires at once
        reference = block.forward_bits_reference(bits)
        assert reference[:8].all()
        assert np.array_equal(reference, block.forward_bits_sorted_vector(bits))
        assert np.array_equal(reference, block.forward_bits(bits))

    def test_hardware_estimate(self):
        assert SorterAveragePoolingBlock(4).hardware().jj_count > 0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            SorterAveragePoolingBlock(0)


class TestCategorization:
    @pytest.mark.parametrize("k", [1, 2, 3, 6, 15])
    def test_chain_matches_reference_probability(self, k, rng):
        block = MajorityChainCategorizationBlock(k)
        p = 0.6
        products = (rng.random((k, 200_00)) < p).astype(np.uint8)
        measured = block.forward_products(products).mean()
        expected = chain_output_probability(p, k)
        assert measured == pytest.approx(float(expected), abs=0.02)

    def test_ranking_preserved_for_separated_scores(self, rng):
        k, n = 100, 1024
        block = MajorityChainCategorizationBlock(k)
        inputs = rng.uniform(-1, 1, k)
        weights = rng.uniform(-1, 1, (5, k))
        weights[3] = np.sign(inputs) * 0.9  # clearly the best-aligned class
        scores = []
        for class_index in range(5):
            products = np.logical_not(
                np.logical_xor(
                    bipolar_streams(inputs, n, rng),
                    bipolar_streams(weights[class_index], n, rng),
                )
            ).astype(np.uint8)
            scores.append(block.forward_products(products).mean())
        assert int(np.argmax(scores)) == 3

    def test_chain_probability_monotone(self):
        p = np.linspace(0, 1, 21)
        q = chain_output_probability(p, 101)
        assert np.all(np.diff(q) >= -1e-12)
        assert q[0] == pytest.approx(0.0)
        assert q[-1] == pytest.approx(1.0)

    def test_chain_probability_fixed_point_at_half(self):
        assert chain_output_probability(0.5, 501) == pytest.approx(0.5, abs=1e-6)

    def test_two_input_chain_is_and(self, rng):
        block = MajorityChainCategorizationBlock(2)
        bits = rng.integers(0, 2, (2, 64)).astype(np.uint8)
        assert np.array_equal(block.forward_products(bits), bits[0] & bits[1])

    def test_shape_validation(self, rng):
        block = MajorityChainCategorizationBlock(10)
        with pytest.raises(ShapeError):
            block.forward_products(rng.integers(0, 2, (5, 64)).astype(np.uint8))

    def test_hardware_linear_growth(self):
        small = MajorityChainCategorizationBlock(100).hardware()
        large = MajorityChainCategorizationBlock(800).hardware()
        assert large.jj_count > 6 * small.jj_count
        assert large.depth_phases > small.depth_phases

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            MajorityChainCategorizationBlock(0)
        with pytest.raises(ConfigurationError):
            chain_output_probability(0.5, 0)


class TestSngBlock:
    def test_generate_decodes_back(self):
        block = SngBlock(20, 8, seed=3)
        values = np.linspace(-0.9, 0.9, 20)
        stream = block.generate(values, 4096)
        assert np.allclose(stream.to_values(), values, atol=0.08)

    def test_matrix_count(self):
        assert SngBlock(100, 10).n_matrices == 3
        assert SngBlock(40, 10).n_matrices == 1

    def test_random_words_shape(self):
        block = SngBlock(50, 10, seed=1)
        words = block.random_words(64)
        assert words.shape == (50, 64)

    def test_hardware_shared_cheaper_than_private(self):
        block = SngBlock(200, 10)
        assert block.hardware().jj_count < block.hardware_unshared().jj_count

    def test_value_shape_checked(self):
        block = SngBlock(10, 8)
        with pytest.raises(ShapeError):
            block.generate(np.zeros(5), 128)

    def test_comparator_netlist_is_buildable(self):
        netlist = SngBlock(4, 4).build_comparator_netlist()
        netlist.validate()
        assert netlist.jj_count() > 0

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SngBlock(0)
        with pytest.raises(ConfigurationError):
            SngBlock(10, n_bits=1)


class TestApcBaseline:
    def test_activation_follows_tanh_shape(self, rng):
        m, n = 16, 4096
        block = ApcFeatureExtractionBlock(m)
        values = rng.uniform(-0.5, 0.5, m)
        products = bipolar_streams(values, n, rng)
        decoded = 2.0 * block.forward_products(products).mean() - 1.0
        assert abs(decoded - np.tanh(values.sum())) < 0.35

    def test_saturation(self):
        block = ApcFeatureExtractionBlock(8)
        ones = np.ones((8, 1024), dtype=np.uint8)
        assert 2.0 * block.forward_products(ones).mean() - 1.0 > 0.9

    def test_forward_wrapper(self, rng):
        block = ApcFeatureExtractionBlock(9)
        x = rng.integers(0, 2, (9, 256)).astype(np.uint8)
        w = rng.integers(0, 2, (9, 256)).astype(np.uint8)
        assert block.forward(x, w).bits.shape == (256,)

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            ApcFeatureExtractionBlock(9).forward_products(
                rng.integers(0, 2, (5, 64)).astype(np.uint8)
            )

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ApcFeatureExtractionBlock(0)


class TestBlockHardwareContainer:
    def test_combine_and_replicate(self):
        from repro.blocks.hardware import BlockHardware

        a = BlockHardware("a", 100, 5)
        b = BlockHardware("b", 50, 3)
        combined = a.combine(b)
        assert combined.jj_count == 150
        assert combined.depth_phases == 8
        replicated = a.replicate(4)
        assert replicated.jj_count == 400
        assert replicated.depth_phases == 5
        with pytest.raises(ConfigurationError):
            a.replicate(0)

    def test_cost_conversion(self):
        from repro.aqfp import AqfpTechnology
        from repro.blocks.hardware import BlockHardware

        cost = BlockHardware("a", 1000, 10).cost(AqfpTechnology(), 1024)
        assert cost.energy_pj > 0
        assert cost.latency_ns > 0


class TestPropertyBased:
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_feature_extraction_models_agree(self, m, seed):
        rng = np.random.default_rng(seed)
        block = SorterFeatureExtractionBlock(m)
        products = rng.integers(0, 2, (m, 64)).astype(np.uint8)
        assert np.array_equal(
            block.forward_products(products),
            block.forward_products_sorted_vector(products),
        )

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_pooling_models_agree(self, m, seed):
        rng = np.random.default_rng(seed)
        block = SorterAveragePoolingBlock(m)
        bits = rng.integers(0, 2, (m, 64)).astype(np.uint8)
        assert np.array_equal(
            block.forward_bits(bits), block.forward_bits_sorted_vector(bits)
        )

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=300))
    @settings(max_examples=50, deadline=None)
    def test_chain_probability_in_unit_interval(self, p, k):
        q = float(chain_output_probability(p, k))
        assert 0.0 <= q <= 1.0
