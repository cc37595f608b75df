"""Execution-backend layer: registry, equivalence, and the packed data plane.

Covers the three contracts of :mod:`repro.backends`:

* **registry round-trip** -- every registered name constructs a backend
  that runs, and unknown names fail with an actionable
  :class:`~repro.errors.ConfigurationError`;
* **cross-backend equivalence** -- every ``bit-exact-*`` backend produces
  scores *identical* to the legacy oracle (the packed data plane is a
  faster representation of the same hardware, not an approximation), and
  the fast statistical backend matches the historical fast path exactly;
* **word-blocked stepper** -- both execution strategies of
  :func:`repro.blocks.batched.feature_extraction_recurrence_words` are
  bit-identical to the scalar sorted-vector block model;
* **stream plane** -- the model-constant SNG randomness is drawn once
  per mapper and input shape, shared read-only by every backend on the
  mapper, and leaves every score bit-identical to legacy, within and past
  its byte budget.
"""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from nets import tiny_cnn

from repro.api import PredictOptions, Session
from repro.backends import (
    BitExactPackedBackend,
    backend_class,
    backend_names,
    create_backend,
)
from repro.backends import packed as packed_backend
from repro.blocks.batched import (
    feature_extraction_recurrence,
    feature_extraction_recurrence_words,
)
from repro.blocks.feature_extraction import SorterFeatureExtractionBlock
from repro.blocks.pooling import SorterAveragePoolingBlock
from repro.errors import ConfigurationError, ShapeError
from repro.nn.architectures import LayerSpec, build_network
from repro.nn.layers import AvgPool2D, Conv2D
from repro.nn.sc_layers import ScNetworkMapper
from repro.sc.packed import (
    pack_bits,
    packed_column_counts,
    unpack_bits,
    words_for_length,
)


@pytest.fixture(scope="module")
def mapper():
    return ScNetworkMapper(tiny_cnn(), stream_length=128, seed=7)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((3, 1, 28, 28))


class TestRegistry:
    def test_expected_backends_registered(self):
        assert backend_names() == (
            "bit-exact-legacy",
            "bit-exact-native",
            "bit-exact-packed",
            "float",
            "sc-fast",
        )

    def test_round_trip_every_name_constructs_and_runs(self, mapper, images):
        """Every registered backend constructs and produces class scores."""
        for name in backend_names():
            backend = create_backend(name, mapper)
            assert backend.name == name
            assert backend_class(name) is type(backend)
            scores = backend.forward(images)
            assert scores.shape == (3, 10)
            assert np.all(np.isfinite(scores))

    def test_unknown_backend_is_a_configuration_error(self, mapper):
        with pytest.raises(ConfigurationError, match="bit-exact-packed"):
            backend_class("no-such-backend")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            create_backend("no-such-backend", mapper)

    def test_capability_flags(self):
        assert backend_class("float").bit_exact is False
        assert backend_class("bit-exact-packed").bit_exact is True
        assert backend_class("bit-exact-packed").batch_invariant
        assert not backend_class("sc-fast").batch_invariant


class TestCrossBackendEquivalence:
    def test_bit_exact_backends_are_bit_identical(self, mapper, images):
        """Legacy and both kernel tiers produce identical scores."""
        legacy = create_backend("bit-exact-legacy", mapper).forward(images)
        packed = BitExactPackedBackend(mapper, use_native=False).forward(images)
        native = create_backend("bit-exact-native", mapper).forward(images)
        assert np.array_equal(legacy, packed)
        assert np.array_equal(legacy, native)

    def test_packed_matches_legacy_on_thirty_two_images(self, mapper):
        """Packed scores equal the legacy oracle on a full 32-image batch."""
        batch = np.random.default_rng(29).random((32, 1, 28, 28))
        legacy = create_backend("bit-exact-legacy", mapper).forward(batch)
        packed = create_backend("bit-exact-packed", mapper).forward(batch)
        assert legacy.shape == (32, 10)
        assert np.array_equal(legacy, packed)

    def test_packed_matches_legacy_on_odd_stream_length(self, images):
        """Tail-word masking: equivalence holds when N % 64 != 0."""
        odd_mapper = ScNetworkMapper(tiny_cnn(), stream_length=100, seed=3)
        legacy = create_backend("bit-exact-legacy", odd_mapper).forward(images)
        packed = create_backend("bit-exact-packed", odd_mapper).forward(images)
        assert np.array_equal(legacy, packed)

    def test_packed_position_chunk_does_not_change_scores(
        self, monkeypatch, mapper, images
    ):
        auto = create_backend("bit-exact-packed", mapper).forward(images)
        # A 1-byte budget leaves one conv row or one neuron per chunk.
        monkeypatch.setattr(BitExactPackedBackend, "_CHUNK_BYTES_BUDGET", 1)
        chunked = create_backend("bit-exact-packed", mapper).forward(images)
        assert np.array_equal(auto, chunked)

    def test_fast_backend_matches_historical_fast_path(self, mapper, images):
        """Same RNG seeding as the mapper's own statistical forward."""
        backend = create_backend("sc-fast", mapper)
        scores = backend.forward(images)
        expected = mapper.fast_forward(images, inject_noise=True)
        assert np.array_equal(scores, expected)

    def test_float_backend_matches_network_reference(self, mapper, images):
        backend = create_backend("float", mapper)
        expected = mapper.network.forward(images * 2.0 - 1.0, training=False)
        assert np.array_equal(backend.forward(images), expected)

    def test_packed_backend_single_image_shape(self, mapper, images):
        scores = BitExactPackedBackend(mapper).forward(images[0])
        assert scores.shape == (1, 10)


class TestEngineFacade:
    """``Session`` is the one front door onto the execution backends."""

    def test_evaluate_selects_backend_by_name(self, images):
        session = Session.from_network(tiny_cnn(), stream_length=128, seed=7)
        labels = np.zeros(3, dtype=int)
        for name in ("float", "sc-fast", "bit-exact-packed"):
            result = session.evaluate(images, labels, backend=name)
            assert result.mode == name
            assert result.n_images == 3
            assert 0.0 <= result.accuracy <= 1.0

    def test_evaluate_unknown_backend_raises(self, images):
        session = Session.from_network(tiny_cnn(), stream_length=128, seed=7)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            session.evaluate(images, np.zeros(3, dtype=int), backend="typo")

    def test_engine_rejects_unknown_default_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            Session.from_network(tiny_cnn(), stream_length=128, backend="nope")


class TestWordBlockedStepper:
    @pytest.mark.parametrize("strategy", ["all-states", "per-cycle"])
    @pytest.mark.parametrize("length", [64, 100, 256])
    def test_stepper_matches_sorted_vector_block(self, rng, strategy, length):
        """Both strategies are bit-identical to the hardware data-path model."""
        m = 9
        block = SorterFeatureExtractionBlock(m)
        products = rng.integers(0, 2, (m, length), dtype=np.uint8)
        expected = block.forward_products_sorted_vector(products)
        half = block.threshold
        counts = products.sum(axis=0)
        words = feature_extraction_recurrence_words(
            counts, half, -half, half + 1, strategy=strategy
        )
        assert np.array_equal(unpack_bits(words, length), expected)

    def test_strategies_agree_on_batches(self, rng):
        counts = rng.integers(0, 12, (4, 7, 200))
        kwargs = dict(half=5, low=-5, high=6)
        states = feature_extraction_recurrence_words(
            counts, strategy="all-states", **kwargs
        )
        cycle = feature_extraction_recurrence_words(
            counts, strategy="per-cycle", **kwargs
        )
        assert np.array_equal(states, cycle)
        bits = feature_extraction_recurrence(counts, **kwargs)
        assert np.array_equal(bits, unpack_bits(states, 200))

    def test_stepper_rejects_bad_strategy(self, rng):
        with pytest.raises(ConfigurationError, match="strategy"):
            feature_extraction_recurrence_words(
                rng.integers(0, 3, 64), 1, -1, 2, strategy="magic"
            )

    def test_packed_column_counts_match_unpacked_sum(self, rng):
        bits = rng.integers(0, 2, (5, 9, 130), dtype=np.uint8)
        counts = packed_column_counts(pack_bits(bits), 130)
        assert np.array_equal(counts, bits.sum(axis=-2))


class TestSessionSharding:
    """A ``workers`` call shards the batch over the session's cached
    replicas, bit-identically to the unsharded backend."""

    @staticmethod
    def _session(stream_length=128):
        return Session.from_network(
            tiny_cnn(), stream_length=stream_length, seed=7
        )

    @staticmethod
    def _replicas(session):
        return {key[1]: b for key, b in session._backends.items()}

    def test_forward_matches_packed(self, mapper, images):
        expected = create_backend("bit-exact-packed", mapper).forward(images)
        with self._session() as session:
            for _ in range(2):  # again on the warm replicas and arenas
                got = session.predict(images, PredictOptions(workers=2))
                assert np.array_equal(got.scores, expected)
            assert sorted(self._replicas(session)) == [0, 1]

    def test_forward_partial_matches_packed_odd_length(self):
        odd_mapper = ScNetworkMapper(tiny_cnn(), stream_length=100, seed=7)
        images = np.random.default_rng(5).random((4, 1, 28, 28))
        packed = create_backend("bit-exact-packed", odd_mapper)
        checkpoints = (13, 50, 100)
        expected = packed.forward_partial(images, checkpoints)
        options = PredictOptions(checkpoints=checkpoints, workers=2)
        with self._session(stream_length=100) as session:
            for _ in range(2):
                got = session.predict(images, options)
                assert np.array_equal(got.checkpoint_scores, expected)
                assert np.array_equal(got.scores, packed.forward(images))

    def test_single_image_runs_unsharded_on_replica_0(
        self, mapper, images, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("one image must not start a thread pool")

        monkeypatch.setattr("repro.api.session.ThreadPoolExecutor", no_pool)
        expected = create_backend("bit-exact-packed", mapper).forward(images[:1])
        with self._session() as session:
            got = session.predict(images[:1], PredictOptions(workers=2))
            assert np.array_equal(got.scores, expected)
            assert list(self._replicas(session)) == [0]
            assert self._replicas(session)[0] is session.backend()

    def test_more_workers_than_images(self, mapper, images):
        expected = create_backend("bit-exact-packed", mapper).forward(images)
        with self._session() as session:
            got = session.predict(images, PredictOptions(workers=8))
            assert np.array_equal(got.scores, expected)
            # One replica per shard at most: never more than the images.
            assert sorted(self._replicas(session)) == [0, 1, 2]

    def test_shards_run_concurrently(self, mapper, images, monkeypatch):
        # Each shard waits for the other inside its forward: a shard loop
        # that ran them one after another would break the barrier.
        both_running = threading.Barrier(2, timeout=30)
        forward = BitExactPackedBackend.forward

        def forward_together(backend, shard):
            both_running.wait()
            return forward(backend, shard)

        monkeypatch.setattr(BitExactPackedBackend, "forward", forward_together)
        expected = create_backend("bit-exact-legacy", mapper).forward(images[:2])
        with self._session() as session:
            got = session.predict(images[:2], PredictOptions(workers=2))
        assert np.array_equal(got.scores, expected)

    def test_obs_snapshot_merges_replicas(self, images):
        with self._session() as session:
            session.predict(images, PredictOptions(workers=3))
            snapshot = session.obs_snapshot()
            per_replica = [
                r.kernel_snapshot() for r in self._replicas(session).values()
            ]

        def calls(kernels):
            return sum(
                tier["calls"]
                for kernel in kernels.values()
                for tier in kernel.values()
            )

        assert (
            calls(snapshot["kernels"])
            == sum(calls(snap) for snap in per_replica)
            > 0
        )
        assert sorted(w["replica"] for w in snapshot["workspaces"]) == [0, 1, 2]

    @pytest.mark.parametrize("batch", [1, 3])
    def test_rejects_non_batch_invariant_backend(self, images, batch):
        # Refused on the request, not on the shard count: one image would
        # not shard, but sc-fast with workers is still a wrong request.
        with self._session() as session:
            with pytest.raises(ConfigurationError, match="'sc-fast'"):
                session.predict(
                    images[:batch], PredictOptions(workers=2), backend="sc-fast"
                )

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_bad_workers(self, images, workers):
        labels = np.zeros(len(images), dtype=int)
        with self._session() as session:
            with pytest.raises(ConfigurationError, match="workers must be >= 1"):
                session.predict(images, PredictOptions(workers=workers))
            with pytest.raises(ConfigurationError, match="workers must be >= 1"):
                session.evaluate(images, labels, workers=workers)

    def test_close_is_idempotent(self, images):
        session = self._session()
        session.predict(images, PredictOptions(workers=2))
        session.close()
        session.close()
        assert session._backends == {}
        with pytest.raises(ConfigurationError, match="closed"):
            session.predict(images, PredictOptions(workers=2))


class TestWorkspaceReuseAcrossForwards:
    def test_packed_backend_steady_state_reuses_arena(self, mapper, images):
        backend = create_backend("bit-exact-packed", mapper)
        first = backend.forward(images)
        retained = backend.workspace.nbytes
        assert retained > 0
        second = backend.forward(images)
        # Identical scores and no arena growth at steady state.
        assert np.array_equal(first, second)
        assert backend.workspace.nbytes == retained


class TestDeepNetworkEquivalence:
    """Multi-conv / wide-FC geometry (the Table 8 SNN) stays bit-exact.

    Regression guard: the tiny test CNN never exercises fan-ins wide
    enough to reach uint16 column counts with bit planes at exponent
    >= 9, which is exactly where a narrow-shift bug once made FC-500
    layers diverge while every small-net test stayed green.
    """

    def test_snn_packed_equals_legacy(self):
        from repro.nn import build_snn

        network = build_snn(seed=1, training_stream_length=64)
        snn_mapper = ScNetworkMapper(network, stream_length=100, seed=3)
        image = np.random.default_rng(0).random((1, 1, 28, 28))
        packed = create_backend("bit-exact-packed", snn_mapper).forward(image)
        legacy = create_backend("bit-exact-legacy", snn_mapper).forward(image)
        assert np.array_equal(packed, legacy)


def _stream_word_calls(backend) -> int:
    """``stream_words`` calls the backend booked, over both tiers."""
    cells = backend.kernel_snapshot().get("stream_words", {})
    return sum(cell["calls"] for cell in cells.values())


#: One backend factory per kernel tier, keyed by registry name:
#: ``use_native=False`` pins the NumPy kernels, the default takes the
#: compiled tier when it is available.
TIERS = {
    "bit-exact-packed": lambda mapper: BitExactPackedBackend(
        mapper, use_native=False
    ),
    "bit-exact-native": lambda mapper: create_backend("bit-exact-native", mapper),
}


class TestPackedPooling:
    """The packed pooling layer walks its windows in chunks of window rows
    (``_POOL_CHUNK_BYTES`` of column counts); every chunk edge, trimmed
    map edge and tail word stays bit-identical to the per-cycle counter."""

    @staticmethod
    def _reference(bits: np.ndarray, p: int) -> np.ndarray:
        """Packed per-cycle pooling of unpacked ``(B, C, H, W, N)`` bits."""
        batch, channels, height, width, n = bits.shape
        out_h, out_w = height // p, width // p
        windows = (
            bits[:, :, : out_h * p, : out_w * p]
            .reshape(batch, channels, out_h, p, out_w, p, n)
            .transpose(0, 1, 2, 4, 3, 5, 6)
            .reshape(batch, channels, out_h, out_w, p * p, n)
        )
        return pack_bits(
            SorterAveragePoolingBlock(p * p).forward_bits_reference(windows)
        )

    @pytest.mark.parametrize("tier", sorted(TIERS))
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 130, 1024])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("cut", ["inside-planes", "between-planes"])
    def test_chunk_edges_match_reference_loop(
        self, monkeypatch, rng, tier, length, p, cut
    ):
        # 3 images x 2 channels of an 11 x 10 map: neither side is a
        # multiple of p > 1, so whole rows and columns are trimmed.
        batch, channels, height, width = 3, 2, 11, 10
        out_h, out_w = height // p, width // p
        # Two window rows per chunk cut inside each (image, channel)
        # plane; four planes of rows per chunk cut between the six
        # planes.  Either way most grids end on a ragged chunk.
        rows = 2 if cut == "inside-planes" else 4 * out_h
        monkeypatch.setattr(
            packed_backend, "_POOL_CHUNK_BYTES", rows * out_w * length
        )
        chunks = []
        recurrence = packed_backend.pooling_recurrence

        def counted(counts, m):
            chunks.append(counts.shape[:2])
            return recurrence(counts, m)

        monkeypatch.setattr(packed_backend, "pooling_recurrence", counted)
        bits = rng.integers(
            0, 2, (batch, channels, height, width, length), dtype=np.uint8
        )
        mapper = ScNetworkMapper(tiny_cnn(), stream_length=length, seed=7)
        backend = TIERS[tier](mapper)
        pooled = backend._packed_pool(pack_bits(bits), AvgPool2D(p), 2)
        assert len(chunks) > 1
        assert sum(a * b for a, b in chunks) == batch * channels * out_h
        assert np.array_equal(pooled, self._reference(bits, p))

    def test_map_smaller_than_window_is_refused(self, mapper):
        words = np.zeros((1, 2, 3, 5, words_for_length(128)), dtype=np.uint64)
        backend = create_backend("bit-exact-packed", mapper)
        with pytest.raises(ShapeError, match="smaller than the pooling"):
            backend._packed_pool(words, AvgPool2D(4), 2)

    def test_sixteen_by_sixteen_window_matches_legacy(self):
        """M = 256 pooled streams need 16-bit column counts on the packed
        tiers and int64 arithmetic in the oracle's per-cycle loop."""
        specs = [
            LayerSpec(kind="conv", name="Conv3_x", kernel=3, channels=2),
            LayerSpec(kind="pool", name="AvgPool", kernel=16, stride=16),
            LayerSpec(kind="output", name="OutLayer", units=10),
        ]
        network = build_network(
            specs, activation="hardware", seed=5, training_stream_length=128
        )
        wide = ScNetworkMapper(network, stream_length=100, seed=3)
        batch = np.random.default_rng(5).random((2, 1, 28, 28))
        legacy = create_backend("bit-exact-legacy", wide).forward(batch)
        for name, make in TIERS.items():
            scores = make(wide).forward(batch)
            assert np.array_equal(scores, legacy), name

    def test_warm_call_working_set_is_bounded(self):
        """A warmed 32-image call at N = 1024 keeps chunk-sized transients:
        about 2.6 MB traced, where regrouping, counting and accumulating
        the whole batch at once traces 25.7 MB."""
        network = tiny_cnn()
        index = next(
            i for i, l in enumerate(network.layers) if isinstance(l, AvgPool2D)
        )
        backend = create_backend(
            "bit-exact-packed", ScNetworkMapper(network, stream_length=1024)
        )
        words = np.random.default_rng(3).integers(
            0, 2**63, (32, 2, 28, 28, 16), dtype=np.uint64
        )
        backend._packed_pool(words, network.layers[index], index)
        tracemalloc.start()
        try:
            backend._packed_pool(words, network.layers[index], index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestStreamPlane:
    """One draw of the model-constant randomness per mapper and shape."""

    @pytest.fixture(scope="class")
    def network(self):
        return tiny_cnn()

    @pytest.fixture(scope="class")
    def legacy_scores(self, network, images):
        mapper = ScNetworkMapper(network, stream_length=128, seed=7)
        return create_backend("bit-exact-legacy", mapper).forward(images)

    @pytest.fixture(scope="class", params=[100, 1000])
    def legacy_planes(self, request, network, images):
        """Legacy prefix scores at checkpoints off the 64-bit word grid."""
        n = request.param
        points = tuple(sorted({1, 65, n // 3, n}))
        mapper = ScNetworkMapper(network, stream_length=n, seed=7)
        partial = create_backend("bit-exact-legacy", mapper).forward_partial(
            images, points
        )
        return n, points, partial

    @pytest.mark.parametrize("name", TIERS)
    def test_first_and_second_forward_equal_legacy(
        self, network, legacy_planes, images, name
    ):
        n, points, partial = legacy_planes
        backend = TIERS[name](ScNetworkMapper(network, stream_length=n, seed=7))
        for _ in range(2):
            assert np.array_equal(backend.forward(images), partial[-1])
        backend = TIERS[name](ScNetworkMapper(network, stream_length=n, seed=7))
        for _ in range(2):
            assert np.array_equal(backend.forward_partial(images, points), partial)

    def test_build_is_booked_once_per_mapper(self, network, images):
        mapper = ScNetworkMapper(network, stream_length=128, seed=7)
        packed = BitExactPackedBackend(mapper, use_native=False)
        packed.forward(images)
        # The input compare plus weights and bias of conv, fc and output.
        assert _stream_word_calls(packed) == 7
        packed.forward(images)
        packed.forward_partial(images, (64, 128))
        assert _stream_word_calls(packed) == 9
        other = create_backend("bit-exact-native", mapper)
        other.forward(images)
        assert _stream_word_calls(other) == 1

    def test_concurrent_first_forwards_build_once(
        self, network, images, legacy_scores
    ):
        mapper = ScNetworkMapper(network, stream_length=128, seed=7)
        backends = [make(mapper) for make in list(TIERS.values()) * 2]
        start = threading.Barrier(len(backends), timeout=60)

        def first_forward(backend):
            start.wait()
            return backend.forward(images)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(backends)) as pool:
                scores = list(pool.map(first_forward, backends, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        # Six weight/bias entries drawn once, one input compare each.
        assert sum(_stream_word_calls(b) for b in backends) == 6 + len(backends)
        for row in scores:
            assert np.array_equal(row, legacy_scores)

    @pytest.mark.parametrize("budget", ["nothing", "input_and_conv"])
    def test_entries_past_the_budget_are_redrawn(
        self, monkeypatch, network, images, legacy_scores, budget
    ):
        n = 128
        conv = next(l for l in network.layers if isinstance(l, Conv2D))
        fits = 0
        redrawn = 6
        if budget == "input_and_conv":
            conv_values = conv.weights.size + conv.bias.size
            fits = 8 * (28 * 28 * n + conv_values * words_for_length(n))
            redrawn = 4
        monkeypatch.setattr(ScNetworkMapper, "_PLANE_BYTES_BUDGET", fits)
        mapper = ScNetworkMapper(network, stream_length=n, seed=7)
        backend = create_backend("bit-exact-packed", mapper)
        assert np.array_equal(backend.forward(images), legacy_scores)
        assert _stream_word_calls(backend) == 7
        assert np.array_equal(backend.forward(images), legacy_scores)
        assert _stream_word_calls(backend) == 7 + 1 + redrawn
        assert mapper._plane_bytes == fits

    def test_plane_arrays_are_read_only(self, network, images):
        mapper = ScNetworkMapper(network, stream_length=100, seed=7)
        backend = create_backend("bit-exact-packed", mapper)
        backend.forward(images[:1])
        plane = mapper.stream_plane(images.shape[1:], backend._stream_words)
        arrays = [plane.input_draws] + [
            entry for pair in plane.params.values() for entry in pair
        ]
        assert len(arrays) == 7
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.reshape(-1)[0] = 0

    @settings(max_examples=10, deadline=None)
    @given(
        stream_length=st.integers(1, 200),
        seed=st.integers(0, 2**63 - 1),
        batch=st.integers(1, 3),
    )
    def test_fresh_mapper_packed_equals_legacy(
        self, network, stream_length, seed, batch
    ):
        mapper = ScNetworkMapper(network, stream_length=stream_length, seed=seed)
        images = np.random.default_rng(seed).random((batch, 1, 28, 28))
        assert np.array_equal(
            create_backend("bit-exact-packed", mapper).forward(images),
            create_backend("bit-exact-legacy", mapper).forward(images),
        )


class TestWorkersPolicy:
    """The ``workers`` policy: shard a batch-invariant backend or refuse."""

    @pytest.fixture(scope="class")
    def session(self):
        with Session.from_network(tiny_cnn(), stream_length=128, seed=7) as s:
            yield s

    def test_no_workers_is_identity(self, session, images):
        # No sharding at all: even a backend that cannot shard answers.
        for workers in (None, 1):
            result = session.predict(
                images, PredictOptions(workers=workers), backend="sc-fast"
            )
            assert result.backend == "sc-fast"

    def test_bit_exact_legacy_shards_bit_identically(self, session, images):
        expected = session.backend("bit-exact-legacy").forward(images)
        result = session.predict(
            images, PredictOptions(workers=4), backend="bit-exact-legacy"
        )
        assert result.backend == "bit-exact-legacy"
        assert np.array_equal(result.scores, expected)

    def test_non_progressive_backend_shards_bit_identically(
        self, session, images
    ):
        # "float" is the only batch-invariant, non-progressive backend
        # left now that every bit-exact backend reads stream prefixes:
        # each shard takes one plain forward and exits at the full stream.
        plain = session.predict(images, backend="float")
        sharded = session.predict(
            images, PredictOptions(workers=2), backend="float"
        )
        assert sharded.backend == "float"
        assert sharded.checkpoints == plain.checkpoints == (128,)
        assert np.array_equal(sharded.exit_checkpoints, plain.exit_checkpoints)
        assert np.array_equal(sharded.predictions, plain.predictions)
        # Equal to rounding only: NumPy multiplies a one-row batch through
        # a matrix-vector BLAS path whose sums round differently.
        np.testing.assert_allclose(
            sharded.checkpoint_scores, plain.checkpoint_scores, rtol=0, atol=1e-12
        )

    def test_non_invariant_backend_refuses_workers(self, session, images):
        # Sharding sc-fast would change its scores; running another
        # backend instead would change the model.  Both fail loudly.
        with pytest.raises(ConfigurationError, match="'sc-fast'"):
            session.predict(images, PredictOptions(workers=2), backend="sc-fast")
        with pytest.raises(ConfigurationError, match="'sc-fast'"):
            session.evaluate(
                images, np.zeros(3, dtype=int), backend="sc-fast", workers=2
            )


class TestBenchPerfThreadSweep:
    """``bench_perf.py`` never reports an oversubscribed sweep point."""

    @pytest.fixture(scope="class")
    def bench(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_perf.py"
        spec = importlib.util.spec_from_file_location("bench_perf", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_points_beyond_cpu_count_are_skipped(self, bench):
        import os

        workers = (os.cpu_count() or 1) + 1
        (entry,) = bench.bench_thread_scaling(64, 2, (workers,))
        assert entry["workers"] == workers
        assert "skipped" in entry
        assert "speedup" not in entry and "new_seconds" not in entry
        # The guard ignores skipped points instead of reading a speedup.
        bench._scaling_guard([entry], quick=False)
