"""Cross-module integration tests.

These tie the layers of the stack together: SNG -> blocks -> decoded values,
gate-level netlists vs vectorised block models, and the end-to-end train ->
quantise -> SC-inference pipeline on a small network.
"""

import numpy as np
import pytest
from nets import tiny_cnn

from repro.api import Session
from repro.aqfp import balance_netlist, estimate_cost, simulate, AqfpTechnology
from repro.backends import BitExactPackedBackend, create_backend
from repro.blocks import (
    MajorityChainCategorizationBlock,
    SngBlock,
    SorterAveragePoolingBlock,
    SorterFeatureExtractionBlock,
)
from repro.datasets import generate_digit_dataset
from repro.nn import (
    Dense,
    HardwareActivation,
    Network,
    Trainer,
    TrainingConfig,
)
from repro.nn.layers import Flatten, LogitScale
from repro.sorting import bitonic_sorter


class TestSngToBlockPipeline:
    def test_sng_streams_through_feature_extraction(self):
        """Full SC data path: binary weights -> SNG -> XNOR -> sorter block."""
        m, n = 9, 2048
        rng = np.random.default_rng(42)
        inputs = rng.uniform(-1, 1, m)
        weights = rng.uniform(-1, 1, m)
        input_sng = SngBlock(m, 10, seed=1)
        weight_sng = SngBlock(m, 10, seed=2)
        input_stream = input_sng.generate(inputs, n)
        weight_stream = weight_sng.generate(weights, n)
        block = SorterFeatureExtractionBlock(m)
        output = block.forward(input_stream, weight_stream)
        decoded = float(output.to_values())
        target = float(np.clip((inputs * weights).sum(), -1, 1))
        assert abs(decoded - target) < 0.3

    def test_sng_streams_through_pooling(self):
        m, n = 4, 4096
        rng = np.random.default_rng(7)
        values = rng.uniform(-1, 1, m)
        sng = SngBlock(m, 10, seed=3)
        stream = sng.generate(values, n)
        block = SorterAveragePoolingBlock(m)
        decoded = float(block.forward(stream).to_values())
        assert decoded == pytest.approx(values.mean(), abs=0.06)

    def test_categorization_ranks_sng_streams(self):
        k, n = 64, 2048
        rng = np.random.default_rng(11)
        inputs = rng.uniform(-1, 1, k)
        sng = SngBlock(k, 10, seed=5)
        input_stream = sng.generate(inputs, n)
        block = MajorityChainCategorizationBlock(k)
        aligned = np.sign(inputs) * 0.9
        opposed = -aligned
        weight_sng = SngBlock(k, 10, seed=6)
        aligned_score = block.forward(input_stream, weight_sng.generate(aligned, n)).bits.mean()
        opposed_score = block.forward(input_stream, weight_sng.generate(opposed, n)).bits.mean()
        assert aligned_score > opposed_score + 0.2


class TestHardwareVsModel:
    def test_balanced_sorter_netlist_costs_match_stage_model_scale(self):
        """The stage-level estimator must track the explicit balanced netlist."""
        from repro.aqfp.gates import build_sorter_netlist
        from repro.blocks.hardware import sorter_stage_costs

        width = 8
        netlist, _ = balance_netlist(build_sorter_netlist(bitonic_sorter(width)))
        explicit_jj = netlist.jj_count()
        estimated_jj = sorter_stage_costs(bitonic_sorter(width)).jj_count
        assert 0.3 < estimated_jj / explicit_jj < 3.0

    def test_estimated_energy_positive_for_every_block(self):
        technology = AqfpTechnology()
        for block in (
            SorterFeatureExtractionBlock(9),
            SorterAveragePoolingBlock(4),
            MajorityChainCategorizationBlock(100),
        ):
            cost = block.hardware().cost(technology, 1024)
            assert cost.energy_pj > 0
            assert cost.latency_ns > 0

    def test_gate_level_feature_extraction_cycle(self):
        """One full cycle of the block netlist agrees with the numpy model."""
        rng = np.random.default_rng(5)
        m = 3
        block = SorterFeatureExtractionBlock(m)
        netlist = block.build_netlist()
        balanced, _ = balance_netlist(netlist)
        x = rng.integers(0, 2, (m, 8)).astype(np.uint8)
        w = rng.integers(0, 2, (m, 8)).astype(np.uint8)
        feedback = np.zeros((m, 8), dtype=np.uint8)
        feedback[: (m - 1) // 2] = 1
        stimulus = {}
        inputs = balanced.inputs
        for index in range(m):
            stimulus[inputs[index]] = x[index]
            stimulus[inputs[m + index]] = w[index]
            stimulus[inputs[2 * m + index]] = feedback[index]
        outputs = simulate(balanced, stimulus)
        output_bit = list(outputs.values())[0]
        products = np.logical_not(np.logical_xor(x, w)).astype(np.uint8)
        merged = np.sort(np.concatenate([products, feedback]), axis=0)[::-1]
        assert np.array_equal(output_bit, merged[m - 1])
        assert estimate_cost(balanced, AqfpTechnology()).energy_pj > 0


class TestEndToEndTraining:
    def test_small_dense_network_survives_sc_mapping(self, tiny_dataset):
        """Train a small dense model and check the SC fast model stays close."""
        x_train = tiny_dataset.train_images.reshape(len(tiny_dataset.train_labels), -1) * 2 - 1
        x_test = tiny_dataset.test_images.reshape(len(tiny_dataset.test_labels), -1) * 2 - 1

        network = Network(
            [
                Flatten(),
                Dense(784, 64, rng=np.random.default_rng(0)),
                HardwareActivation(785, stream_length=1024),
                Dense(64, 10, rng=np.random.default_rng(1)),
                LogitScale(64 / 32.0),
            ],
            name="tiny",
        )
        trainer = Trainer(network, TrainingConfig(epochs=6, batch_size=32, seed=0))
        history = trainer.fit(
            x_train.reshape(-1, 1, 28, 28), tiny_dataset.train_labels
        )
        assert history.train_accuracies[-1] > 0.8

        float_acc = network.accuracy(
            x_test.reshape(-1, 1, 28, 28), tiny_dataset.test_labels
        )
        assert float_acc > 0.7

        session = Session.from_network(network, stream_length=1024, seed=3)
        sc_result = session.evaluate(
            tiny_dataset.test_images[:, None],
            tiny_dataset.test_labels,
            backend="sc-fast",
        )
        assert sc_result.accuracy > float_acc - 0.3

    def test_cnn_bit_exact_single_image(self, tiny_dataset):
        """A tiny CNN classifies one image identically in fast and bit-exact modes."""
        from repro.nn.architectures import LayerSpec, build_network

        specs = [
            LayerSpec(kind="conv", name="Conv3_x", kernel=3, channels=4),
            LayerSpec(kind="pool", name="AvgPool", kernel=4, stride=4),
            LayerSpec(kind="fc", name="FC32", units=32),
            LayerSpec(kind="output", name="OutLayer", units=10),
        ]
        network = build_network(specs, activation="hardware", seed=5,
                                training_stream_length=512)
        x_train = tiny_dataset.train_images[:, None] * 2 - 1
        trainer = Trainer(network, TrainingConfig(epochs=3, batch_size=32, seed=2))
        trainer.fit(x_train, tiny_dataset.train_labels)

        session = Session.from_network(network, stream_length=512, seed=7)
        test_images = tiny_dataset.test_images[:, None]
        labels = tiny_dataset.test_labels
        float_result = session.evaluate(test_images, labels, backend="float")
        fast_result = session.evaluate(test_images, labels, backend="sc-fast")
        assert float_result.accuracy > 0.6
        # The tiny network is trained for only a few epochs, so the SC noise
        # costs accuracy, but it must stay far above the 10 % chance level.
        assert fast_result.accuracy > 0.3

        bit_exact = session.evaluate(
            test_images, labels, backend="bit-exact-packed", max_images=1
        )
        assert bit_exact.n_images == 1
        assert bit_exact.mode == "bit-exact-packed"


class TestBatchedBitExact:
    """Whole-network bit-exact inference on a batch (word-packed engine)."""

    def test_batched_path_matches_legacy_per_image(
        self, monkeypatch, tiny_dataset
    ):
        """Batched scores must be bit-identical to the legacy per-image path."""
        session = Session.from_network(
            tiny_cnn(channels=4, units=32), stream_length=128, seed=7
        )
        images = tiny_dataset.test_images[:3, None]
        legacy = np.stack(
            [session.mapper.bit_exact_forward_legacy(img) for img in images]
        )
        batched = session.backend("bit-exact-packed").forward(images)
        assert np.array_equal(batched, legacy)
        # Position chunking bounds memory only: it must not change bits.  A
        # 1-byte budget leaves one conv row or one neuron per chunk.
        monkeypatch.setattr(BitExactPackedBackend, "_CHUNK_BYTES_BUDGET", 1)
        chunked = session.backend("bit-exact-packed").forward(images)
        assert np.array_equal(chunked, batched)

    def test_thirty_two_images_bit_exact(self, tiny_dataset):
        """Bit-exact inference over 32 synthetic-MNIST images in one call.

        The seed implementation restricted bit-exact validation to "a
        handful" of images; the batched engine makes 32 routine.
        """
        session = Session.from_network(
            tiny_cnn(channels=4, units=32), stream_length=128, seed=7
        )
        images = tiny_dataset.test_images[:32, None]
        labels = tiny_dataset.test_labels[:32]
        result = session.evaluate(images, labels, max_images=32)
        assert result.n_images == 32
        assert result.mode == "bit-exact-packed"

        def argmax_accuracy(name, count=32):
            scores = create_backend(name, session.mapper).forward(images[:count])
            assert scores.shape == (count, 10)
            return float((np.argmax(scores, axis=1) == labels[:count]).mean())

        # The reported accuracy must be exactly the argmax accuracy of the
        # backend's own scores (same seed => same streams => same bits), on
        # every backend, sharded or capped.
        assert result.accuracy == argmax_accuracy("bit-exact-packed")
        for name in ("float", "sc-fast"):
            evaluated = session.evaluate(images, labels, backend=name)
            assert evaluated.mode == name
            assert evaluated.accuracy == argmax_accuracy(name)
        sharded = session.evaluate(images, labels, workers=2)
        assert sharded.accuracy == argmax_accuracy("bit-exact-packed")
        capped = session.evaluate(images, labels, max_images=5, workers=2)
        assert capped.n_images == 5
        assert capped.accuracy == argmax_accuracy("bit-exact-packed", 5)
