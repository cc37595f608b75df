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
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from nets import tiny_cnn

from repro.api import PredictOptions, Session
from repro.backends import (
    Backend,
    BitExactPackedBackend,
    ParallelBackend,
    backend_class,
    backend_names,
    create_backend,
    register_backend,
)
from repro.blocks.batched import (
    feature_extraction_recurrence,
    feature_extraction_recurrence_words,
)
from repro.blocks.feature_extraction import SorterFeatureExtractionBlock
from repro.config import ExperimentConfig
from repro.errors import ConfigurationError
from repro.nn import ScInferenceEngine
from repro.nn.layers import Conv2D
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

    def test_registering_nameless_class_fails(self):
        with pytest.raises(ConfigurationError, match="non-empty 'name'"):

            @register_backend
            class Nameless(Backend):  # pragma: no cover - never constructed
                def forward(self, images):
                    return images

    def test_duplicate_name_fails(self):
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_backend
            class Impostor(Backend):  # pragma: no cover - never constructed
                name = "bit-exact-packed"

                def forward(self, images):
                    return images

    def test_capability_flags(self):
        assert backend_class("float").stochastic is False
        assert backend_class("bit-exact-packed").bit_exact is True
        assert backend_class("bit-exact-packed").packed_data_plane is True
        assert backend_class("bit-exact-legacy").packed_data_plane is False
        assert backend_class("bit-exact-packed").batch_invariant
        assert not backend_class("sc-fast").batch_invariant


class TestCrossBackendEquivalence:
    def test_bit_exact_backends_are_bit_identical(self, mapper, images):
        """Legacy and both kernel tiers produce identical scores."""
        legacy = create_backend("bit-exact-legacy", mapper).forward(images)
        packed = create_backend(
            "bit-exact-packed", mapper, use_native=False
        ).forward(images)
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

    def test_packed_position_chunk_does_not_change_scores(self, mapper, images):
        auto = create_backend("bit-exact-packed", mapper).forward(images)
        chunked = create_backend(
            "bit-exact-packed", mapper, position_chunk=5
        ).forward(images)
        assert np.array_equal(auto, chunked)

    def test_fast_backend_matches_historical_fast_path(self, mapper, images):
        """Same batching and RNG seeding as the mapper's fast_accuracy loop."""
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
    def test_evaluate_selects_backend_by_name(self, images):
        engine = ScInferenceEngine(tiny_cnn(), stream_length=128, seed=7)
        labels = np.zeros(3, dtype=int)
        for name in ("float", "sc-fast", "bit-exact-packed"):
            result = engine.evaluate(images, labels, backend=name)
            assert result.mode == name
            assert result.n_images == 3
            assert 0.0 <= result.accuracy <= 1.0

    def test_evaluate_unknown_backend_raises(self, images):
        engine = ScInferenceEngine(tiny_cnn(), stream_length=128, seed=7)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            engine.evaluate(images, np.zeros(3, dtype=int), backend="typo")

    def test_engine_rejects_unknown_default_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            ScInferenceEngine(tiny_cnn(), stream_length=128, default_backend="nope")

    def test_default_backend_comes_from_config(self):
        engine = ScInferenceEngine(tiny_cnn(), stream_length=128)
        assert engine.default_backend == ExperimentConfig().default_backend

    def test_config_backend_knob(self):
        config = ExperimentConfig().with_backend("bit-exact-packed")
        assert config.default_backend == "bit-exact-packed"
        with pytest.raises(ConfigurationError, match="default_backend"):
            ExperimentConfig(default_backend="")

    def test_legacy_bit_exact_wrapper_keeps_mode_label(self, images):
        engine = ScInferenceEngine(tiny_cnn(), stream_length=128, seed=7)
        labels = np.zeros(3, dtype=int)
        result = engine.evaluate_sc_bit_exact(
            images, labels, max_images=2, backend="bit-exact-packed"
        )
        assert result.mode == "sc-bit-exact"
        assert result.n_images == 2


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


class TestParallelBackend:
    """Thread-sharded execution is bit-identical to the inner backend."""

    def test_not_registered_and_named_after_inner(self, mapper):
        assert "ParallelBackend" not in {
            backend_class(n).__name__ for n in backend_names()
        }
        with ParallelBackend(
            mapper, workers=2, inner_backend="bit-exact-legacy"
        ) as parallel:
            assert parallel.name == "bit-exact-legacy"
            assert parallel.bit_exact and parallel.progressive
            assert parallel.batch_invariant

    def test_forward_matches_packed(self, mapper, images):
        packed = create_backend("bit-exact-packed", mapper)
        expected = packed.forward(images)
        with ParallelBackend(mapper, workers=2) as parallel:
            got = parallel.forward(images)
            assert np.array_equal(got, expected)
            # Repeat on the warm pool (replicas + arenas reused).
            assert np.array_equal(parallel.forward(images), expected)

    def test_forward_partial_matches_packed_odd_length(self):
        odd_mapper = ScNetworkMapper(tiny_cnn(), stream_length=100, seed=3)
        images = np.random.default_rng(5).random((4, 1, 28, 28))
        packed = create_backend("bit-exact-packed", odd_mapper)
        checkpoints = (13, 50, 100)
        expected = packed.forward_partial(images, checkpoints)
        with ParallelBackend(odd_mapper, workers=2) as parallel:
            got = parallel.forward_partial(images, checkpoints)
            assert np.array_equal(got, expected)
            assert np.array_equal(got[-1], packed.forward(images))

    def test_single_image_uses_inner_replica(self, mapper, images):
        packed = create_backend("bit-exact-packed", mapper)
        with ParallelBackend(mapper, workers=2) as parallel:
            got = parallel.forward(images[:1])
            assert np.array_equal(got, packed.forward(images[:1]))
            # One image cannot shard: the first replica served it inline,
            # without ever starting the thread pool.
            assert parallel._thread_pool is None

    def test_more_workers_than_images(self, mapper, images):
        expected = create_backend("bit-exact-packed", mapper).forward(images)
        with ParallelBackend(mapper, workers=8) as parallel:
            assert np.array_equal(parallel.forward(images), expected)
            # One replica per shard at most: never more than the images.
            assert len(parallel._replicas) <= images.shape[0]

    def test_backend_options_reach_every_replica(
        self, mapper, images, monkeypatch
    ):
        expected = create_backend("bit-exact-packed", mapper).forward(images)
        # A first shard that finishes before the second leases would hand
        # over its replica; meeting at a barrier makes both shards hold one.
        both_leased = threading.Barrier(2, timeout=60)
        forward = BitExactPackedBackend.forward

        def forward_together(backend, shard):
            both_leased.wait()
            return forward(backend, shard)

        monkeypatch.setattr(BitExactPackedBackend, "forward", forward_together)
        with ParallelBackend(mapper, workers=2, position_chunk=5) as parallel:
            assert np.array_equal(parallel.forward(images), expected)
            assert len(parallel._replicas) == 2
            for replica in parallel._replicas:
                assert replica.position_chunk == 5

    def test_kernel_snapshot_aggregates_replicas(self, mapper, images):
        with ParallelBackend(mapper, workers=3) as parallel:
            parallel.forward(images)  # three shards on leased replicas
            merged = parallel.kernel_snapshot()
            per_replica = [r.kernel_snapshot() for r in parallel._replicas]

        def calls(snapshot):
            return sum(
                tier["calls"]
                for kernel in snapshot.values()
                for tier in kernel.values()
            )

        assert calls(merged) == sum(calls(snap) for snap in per_replica) > 0

    def test_rejects_non_batch_invariant_inner(self, mapper):
        with pytest.raises(ConfigurationError, match="sc-fast"):
            ParallelBackend(mapper, workers=2, inner_backend="sc-fast")

    def test_rejects_bad_workers(self, mapper):
        with pytest.raises(ConfigurationError):
            ParallelBackend(mapper, workers=0)

    def test_close_is_idempotent(self, mapper, images):
        parallel = ParallelBackend(mapper, workers=2)
        parallel.forward(images)
        parallel.close()
        parallel.close()
        assert parallel._thread_pool is None


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


#: One backend per kernel tier, by registry name: ``use_native=False``
#: pins the NumPy kernels, the default takes the compiled tier when it is
#: available.
TIERS = {"bit-exact-packed": {"use_native": False}, "bit-exact-native": {}}


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
        backend = create_backend(
            name, ScNetworkMapper(network, stream_length=n, seed=7), **TIERS[name]
        )
        for _ in range(2):
            assert np.array_equal(backend.forward(images), partial[-1])
        backend = create_backend(
            name, ScNetworkMapper(network, stream_length=n, seed=7), **TIERS[name]
        )
        for _ in range(2):
            assert np.array_equal(backend.forward_partial(images, points), partial)

    def test_build_is_booked_once_per_mapper(self, network, images):
        mapper = ScNetworkMapper(network, stream_length=128, seed=7)
        packed = create_backend("bit-exact-packed", mapper, use_native=False)
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
        backends = [
            create_backend(name, mapper, **options)
            for name, options in list(TIERS.items()) * 2
        ]
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


class TestResolveParallelBackend:
    """The ``workers`` policy: shard a batch-invariant backend or refuse."""

    @pytest.fixture(scope="class")
    def session(self):
        with Session.from_network(tiny_cnn(), stream_length=128, seed=7) as s:
            yield s

    def test_no_workers_is_identity(self, session, images):
        # No wrapper at all: even a backend that cannot shard answers.
        for workers in (None, 1):
            result = session.predict(
                images, PredictOptions(workers=workers), backend="sc-fast"
            )
            assert result.backend == "sc-fast"

    def test_shardable_backend_rides_along_as_inner(self, session, images):
        expected = session.backend("bit-exact-legacy").forward(images)
        result = session.predict(
            images, PredictOptions(workers=4), backend="bit-exact-legacy"
        )
        assert result.backend == "bit-exact-legacy"
        assert np.array_equal(result.scores, expected)

    def test_non_invariant_backend_refuses_workers(self, session, images):
        # Sharding sc-fast would change its scores; running another
        # backend instead would change the model.  Both fail loudly.
        with pytest.raises(ConfigurationError, match="'sc-fast'"):
            session.predict(images, PredictOptions(workers=2), backend="sc-fast")
        with pytest.raises(ConfigurationError, match="'sc-fast'"):
            session.evaluate(
                images, np.zeros(3, dtype=int), backend="sc-fast", workers=2
            )


class TestParallelCapabilitiesFollowInner:
    def test_non_progressive_inner_clears_progressive_flag(self, mapper):
        # "float" is the only batch-invariant, non-progressive backend
        # left now that every bit-exact backend reads stream prefixes.
        with ParallelBackend(mapper, workers=2, inner_backend="float") as parallel:
            # The early-exit gate reads this attribute; advertising
            # progressive support the inner lacks would route batches
            # into forward_partial calls the replicas cannot answer.
            assert parallel.progressive is False
            assert parallel.bit_exact is False


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
