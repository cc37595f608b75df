"""Serving layer: micro-batching, progressive early exit, cache, bench.

Pins down the three serving contracts of :mod:`repro.serve`:

* **micro-batching transparency** -- coalescing requests into merged
  batches is invisible for bit-exact backends: per-image scores are
  bit-identical to a direct ``Backend.forward`` call, no matter how the
  scheduler grouped the requests;
* **progressive early exit** -- ``forward_partial`` scores at the final
  checkpoint equal the full-stream forward scores exactly (for the
  packed backend, bit for bit via prefix popcounts), and the stability +
  margin policy never changes a prediction on the configurations the
  benchmark ships;
* **the serving benchmark** -- ``benchmarks/bench_serve.py`` writes
  ``BENCH_serve.json`` reporting >= 1.5x mean stream-cycle reduction at
  ``N = 1024`` on the synthetic MNIST test set with unchanged accuracy.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from nets import tiny_cnn

from repro.backends import Backend, backend_names, create_backend, describe_backends
from repro.backends.registry import backend_class
from repro.config import PredictOptions, ServiceConfig
from repro.errors import ConfigurationError, EncodingError, ShapeError
from repro.nn.sc_layers import ScNetworkMapper
from repro.sc.packed import pack_bits, prefix_ones_counts
from repro.serve import (
    LruResultCache,
    CachedResult,
    ScInferenceService,
    early_exit_from_scores,
    image_digest,
    progressive_forward,
    resolve_checkpoints,
)


@pytest.fixture(scope="module")
def mapper():
    return ScNetworkMapper(tiny_cnn(), stream_length=128, seed=7)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((6, 1, 28, 28))


class TestResolveCheckpoints:
    def test_default_schedule(self):
        assert resolve_checkpoints(1024) == (128, 256, 512, 1024)

    def test_appends_full_length(self):
        assert resolve_checkpoints(100, (0.25, 0.5)) == (25, 50, 100)

    def test_deduplicates_tiny_streams(self):
        # 1/8 and 1/4 of N=4 both round to 1.
        assert resolve_checkpoints(4) == (1, 2, 4)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            resolve_checkpoints(128, (0.5, 1.5))
        with pytest.raises(ConfigurationError):
            resolve_checkpoints(128, ())
        with pytest.raises(ConfigurationError):
            resolve_checkpoints(0)


class TestEarlyExitPolicy:
    def test_stable_confident_image_exits_early(self):
        # Image 0: class 2 from the first checkpoint with a huge margin.
        # Image 1: flips class every checkpoint -> full stream.
        # Image 2: stable class but a sub-margin gap -> full stream.
        scores = np.zeros((3, 3, 4))
        scores[:, 0, 2] = 0.9
        for k in range(3):
            scores[k, 1, k % 4] = 0.9
        scores[:, 2, 1] = 0.05
        result = early_exit_from_scores(
            scores, (16, 32, 64), margin=0.1, stable_checkpoints=2
        )
        assert list(result.exit_checkpoints) == [32, 64, 64]
        assert list(result.predictions) == [2, 2, 1]
        # Fallback images return exactly the final-checkpoint scores.
        assert np.array_equal(result.scores[1], scores[-1, 1])

    def test_margin_zero_stability_one_exits_first(self):
        scores = np.zeros((2, 1, 3))
        scores[:, 0, 1] = 0.5
        result = early_exit_from_scores(
            scores, (8, 16), margin=0.0, stable_checkpoints=1
        )
        assert list(result.exit_checkpoints) == [8]

    def test_stability_longer_than_schedule_never_exits_early(self):
        scores = np.full((2, 2, 3), 0.1)
        scores[:, :, 0] = 0.9
        result = early_exit_from_scores(
            scores, (8, 16), margin=0.0, stable_checkpoints=5
        )
        assert list(result.exit_checkpoints) == [16, 16]

    def test_cycle_reduction_property(self):
        scores = np.zeros((2, 2, 2))
        scores[:, :, 0] = 1.0
        result = early_exit_from_scores(
            scores, (8, 16), margin=0.1, stable_checkpoints=1
        )
        assert result.stream_length == 16
        assert result.mean_exit_checkpoint == 8.0
        assert result.cycle_reduction == 2.0

    def test_rejects_bad_arguments(self):
        scores = np.zeros((2, 1, 3))
        with pytest.raises(ShapeError):
            early_exit_from_scores(scores[0], (8,))
        with pytest.raises(ShapeError):
            early_exit_from_scores(scores, (8, 16, 32))
        with pytest.raises(ConfigurationError):
            early_exit_from_scores(scores, (8, 16), margin=-1.0)
        with pytest.raises(ConfigurationError):
            early_exit_from_scores(scores, (8, 16), stable_checkpoints=0)


class TestForwardPartial:
    def test_packed_final_checkpoint_is_bit_exact(self, mapper, images):
        """Prefix popcount at checkpoint N reproduces forward() exactly."""
        backend = create_backend("bit-exact-packed", mapper)
        checkpoints = resolve_checkpoints(mapper.stream_length)
        partial = backend.forward_partial(images, checkpoints)
        assert partial.shape == (len(checkpoints), 6, 10)
        assert np.array_equal(partial[-1], backend.forward(images))

    def test_packed_prefixes_on_odd_stream_length(self, images):
        """Tail-word masking: prefix counts stay exact when N % 64 != 0."""
        odd = ScNetworkMapper(tiny_cnn(), stream_length=100, seed=3)
        backend = create_backend("bit-exact-packed", odd)
        partial = backend.forward_partial(images[:2], (13, 50, 100))
        assert np.array_equal(partial[-1], backend.forward(images[:2]))

    def test_packed_prefix_matches_bitwise_reference(self, mapper, images):
        """Checkpoint scores equal decoding the literal stream prefix."""
        backend = create_backend("bit-exact-packed", mapper)
        words = backend.output_stream_words(images[:2])
        n = mapper.stream_length
        from repro.sc.packed import unpack_bits

        bits = unpack_bits(words, n)
        for p in (32, 100, n):
            scores = backend.forward_partial(images[:2], (p, n) if p < n else (n,))
            expected = 2.0 * bits[..., :p].sum(axis=-1) / p - 1.0
            assert np.allclose(scores[0] if p < n else scores[-1], expected)

    def test_sc_fast_final_checkpoint_matches_forward(self, mapper, images):
        backend = create_backend("sc-fast", mapper)
        partial = backend.forward_partial(images, (32, 64, 128))
        assert np.array_equal(partial[-1], backend.forward(images))

    def test_checkpoint_validation(self, mapper, images):
        backend = create_backend("bit-exact-packed", mapper)
        for bad in [(64, 32, 128), (0, 128), (32, 200), ()]:
            with pytest.raises(ConfigurationError):
                backend.forward_partial(images, bad)

    def test_sub_full_schedule_matches_prefix_planes(self, mapper, images):
        """Schedules stopping short of N are valid: per-request reduced
        stream lengths read exactly the same prefixes."""
        backend = create_backend("bit-exact-packed", mapper)
        short = backend.forward_partial(images, (32, 64))
        full = backend.forward_partial(images, (32, 64, 128))
        assert np.array_equal(short, full[:2])

    def test_non_progressive_backend_raises(self, mapper, images):
        backend = create_backend("float", mapper)
        assert backend.progressive is False
        with pytest.raises(ConfigurationError, match="progressive"):
            backend.forward_partial(images, (64, 128))

    def test_progressive_forward_degrades_gracefully(self, mapper, images):
        """Non-progressive backends run one full pass, exiting at N."""
        backend = create_backend("float", mapper)
        result = progressive_forward(backend, images)
        assert np.array_equal(result.scores, backend.forward(images))
        assert np.all(result.exit_checkpoints == mapper.stream_length)

    def test_packed_early_exit_keeps_predictions(self, mapper, images):
        """Exited predictions match the full stream under the shipped margin."""
        backend = create_backend("bit-exact-packed", mapper)
        result = progressive_forward(
            backend, images, margin=0.25, stable_checkpoints=2
        )
        full_predictions = np.argmax(backend.forward(images), axis=1)
        assert np.array_equal(result.predictions, full_predictions)
        assert (result.exit_checkpoints < mapper.stream_length).any()

    def test_prefix_ones_counts_reference(self, rng):
        bits = rng.integers(0, 2, (5, 3, 130), dtype=np.uint8)
        words = pack_bits(bits)
        counts = prefix_ones_counts(words, (1, 64, 65, 100, 130), 130)
        for k, p in enumerate((1, 64, 65, 100, 130)):
            assert np.array_equal(counts[k], bits[..., :p].sum(axis=-1))

    def test_prefix_ones_counts_validation(self, rng):
        words = pack_bits(rng.integers(0, 2, (2, 130), dtype=np.uint8))
        with pytest.raises(ShapeError):
            prefix_ones_counts(words, (0,), 130)
        with pytest.raises(ShapeError):
            prefix_ones_counts(words, (131,), 130)
        with pytest.raises(ShapeError):
            prefix_ones_counts(words, (64,), 300)

    def test_progressive_capability_flags(self):
        assert backend_class("sc-fast").progressive is True
        assert backend_class("bit-exact-packed").progressive is True
        assert backend_class("float").progressive is False
        # Every bit-exact backend reads checkpoints as stream prefixes.
        assert backend_class("bit-exact-legacy").progressive is True
        assert backend_class("bit-exact-native").progressive is True

    def test_legacy_prefixes_match_packed(self, mapper, images):
        """All bit-exact backends decode identical checkpoint scores."""
        checkpoints = (13, 64, 128)
        packed = create_backend(
            "bit-exact-packed", mapper, use_native=False
        ).forward_partial(images, checkpoints)
        native = create_backend("bit-exact-native", mapper).forward_partial(
            images, checkpoints
        )
        legacy = create_backend("bit-exact-legacy", mapper).forward_partial(
            images[:2], checkpoints
        )
        assert np.array_equal(native, packed)
        assert np.array_equal(legacy, packed[:, :2])

    def test_legacy_final_checkpoint_is_bit_exact(self, mapper, images):
        backend = create_backend("bit-exact-legacy", mapper)
        partial = backend.forward_partial(images[:2], (64, 128))
        assert np.array_equal(partial[-1], backend.forward(images[:2]))


class TestImageValidation:
    def test_single_image_promoted_to_batch(self, mapper, images):
        backend = create_backend("float", mapper)
        single = backend.forward(images[0])
        assert single.shape == (1, 10)
        assert np.array_equal(single, backend.forward(images[0:1]))

    def test_bad_rank_raises_shape_error(self):
        with pytest.raises(ShapeError):
            Backend._check_images(np.zeros((28, 28)))
        with pytest.raises(ShapeError):
            Backend._check_images(np.zeros((1, 1, 1, 28, 28)))

    def test_out_of_range_raises_encoding_error(self):
        with pytest.raises(EncodingError, match=r"\[0, 1\]"):
            Backend._check_images(np.full((1, 1, 4, 4), 1.5))
        with pytest.raises(EncodingError, match=r"\[0, 1\]"):
            Backend._check_images(np.full((1, 1, 4, 4), -0.1))

    def test_non_numeric_raises_encoding_error(self):
        with pytest.raises(EncodingError, match="numeric"):
            Backend._check_images(np.array([["a"]]))

    def test_nan_raises_encoding_error(self):
        bad = np.full((1, 1, 4, 4), 0.5)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(EncodingError, match=r"\[0, 1\]"):
            Backend._check_images(bad)

    @pytest.mark.parametrize("name", ["float", "sc-fast", "bit-exact-packed"])
    def test_every_backend_validates_before_kernels(self, mapper, name):
        backend = create_backend(name, mapper)
        with pytest.raises(ShapeError):
            backend.forward(np.zeros((28, 28)))
        with pytest.raises(EncodingError):
            # Bipolar-range input: the classic caller bug this catches.
            backend.forward(np.full((1, 1, 28, 28), -1.0))


class TestRegistryHelp:
    def test_describe_backends_lists_every_name_sorted(self):
        lines = describe_backends().splitlines()
        assert [line.split(" -- ")[0] for line in lines] == list(backend_names())
        assert all(" -- " in line for line in lines)

    def test_unknown_backend_error_lists_sorted_names(self):
        with pytest.raises(ConfigurationError) as err:
            backend_class("no-such-backend")
        message = str(err.value)
        positions = [message.index(name) for name in backend_names()]
        assert positions == sorted(positions)


class TestLruCache:
    def test_round_trip_and_hit_rate(self):
        cache = LruResultCache(4)
        key = LruResultCache.key("digest", "sc-fast", 128)
        assert cache.get(key) is None
        cache.put(key, CachedResult(np.zeros(10), 3, 64, np.zeros((1, 10))))
        hit = cache.get(key)
        assert hit is not None and hit.prediction == 3
        assert cache.stats() == {
            "size": 1,
            "capacity": 4,
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
        }

    def test_lru_eviction_order(self):
        cache = LruResultCache(2)
        rows = [
            CachedResult(np.zeros(1), i, 1, np.zeros((1, 1))) for i in range(3)
        ]
        for i, row in enumerate(rows):
            cache.put(LruResultCache.key(str(i), "b", 1), row)
        assert cache.get(LruResultCache.key("0", "b", 1)) is None  # evicted
        assert cache.get(LruResultCache.key("2", "b", 1)) is not None

    def test_zero_capacity_disables(self):
        cache = LruResultCache(0)
        row = CachedResult(np.zeros(1), 0, 1, np.zeros((1, 1)))
        cache.put(LruResultCache.key("d", "b", 1), row)
        assert len(cache) == 0

    def test_digest_distinguishes_images(self, images):
        assert image_digest(images[0]) == image_digest(images[0].copy())
        assert image_digest(images[0]) != image_digest(images[1])


class TestService:
    def test_micro_batched_equals_direct_forward(self, mapper, images):
        """Coalesced single-image requests are bit-identical to one
        direct ``Backend.forward`` call over the whole batch."""
        direct = create_backend("bit-exact-packed", mapper).forward(images)
        config = ServiceConfig(
            backend="bit-exact-packed",
            num_workers=2,
            max_batch_size=4,
            max_wait_ms=50.0,
            early_exit=False,
            cache_capacity=0,
        )
        with ScInferenceService(mapper, config) as service:
            futures = [service.submit(image) for image in images]
            scores = np.concatenate(
                [future.result(timeout=120).scores for future in futures]
            )
        assert np.array_equal(scores, direct)

    def test_default_service_answers_alone_and_coalesced_alike(
        self, mapper, images
    ):
        """The default backend is batch-invariant: an image's scores do
        not depend on which requests it was micro-batched with (nor,
        therefore, on which answer the result cache kept)."""
        config = ServiceConfig(
            num_workers=1, cache_capacity=0, max_wait_ms=200.0, early_exit=False
        )
        with ScInferenceService(mapper, config) as service:
            alone = service.infer(images[0], timeout=120)
            futures = [service.submit(image) for image in images[:4]]
            coalesced = [future.result(timeout=120) for future in futures]
            snapshot = service.metrics.snapshot()
        assert snapshot["max_batch_size"] == 4
        assert np.array_equal(alone.scores, coalesced[0].scores)

    def test_multi_image_requests_equal_direct_forward(self, mapper, images):
        direct = create_backend("bit-exact-packed", mapper).forward(images)
        config = ServiceConfig(
            backend="bit-exact-packed",
            num_workers=1,
            max_wait_ms=20.0,
            early_exit=False,
        )
        with ScInferenceService(mapper, config) as service:
            response = service.infer(images[:4], timeout=120)
            tail = service.infer(images[4:], timeout=120)
        assert np.array_equal(response.scores, direct[:4])
        assert np.array_equal(tail.scores, direct[4:])

    def test_answers_are_counted_before_they_resolve(self, mapper, images):
        """A done callback -- how the HTTP and fleet layers learn of an
        answer -- already finds the request in the metrics."""
        config = ServiceConfig(
            backend="sc-fast", num_workers=1, max_wait_ms=50.0, cache_capacity=0
        )
        counted = []
        with ScInferenceService(mapper, config) as service:
            future = service.submit(images[0])
            future.add_done_callback(
                lambda _: counted.append(service.metrics.snapshot()["requests"])
            )
            future.result(timeout=60)
        assert counted == [1]

    def test_scheduler_coalesces_waiting_requests(self, mapper, images):
        config = ServiceConfig(
            backend="sc-fast",
            num_workers=1,
            max_batch_size=16,
            max_wait_ms=400.0,
            cache_capacity=0,
        )
        with ScInferenceService(mapper, config) as service:
            futures = [service.submit(image) for image in images]
            for future in futures:
                future.result(timeout=120)
            snapshot = service.metrics.snapshot()
        assert snapshot["requests"] == len(images)
        assert snapshot["max_batch_size"] >= 2
        assert snapshot["latency_ms"]["p50"] <= snapshot["latency_ms"]["p99"]
        assert snapshot["throughput_images_per_sec"] > 0

    def test_early_exit_service_matches_full_predictions(self, mapper, images):
        direct = create_backend("bit-exact-packed", mapper).forward(images)
        config = ServiceConfig(
            backend="bit-exact-packed",
            num_workers=1,
            max_wait_ms=10.0,
            early_exit=True,
            margin=0.25,
            stable_checkpoints=2,
        )
        with ScInferenceService(mapper, config) as service:
            response = service.infer(images, timeout=120)
        assert np.array_equal(response.predictions, np.argmax(direct, axis=1))
        assert (response.exit_checkpoints <= mapper.stream_length).all()
        assert (response.exit_checkpoints < mapper.stream_length).any()

    def test_cache_hit_on_repeat(self, mapper, images):
        config = ServiceConfig(
            backend="sc-fast", num_workers=1, max_wait_ms=1.0, cache_capacity=64
        )
        with ScInferenceService(mapper, config) as service:
            first = service.infer(images[0], timeout=120)
            second = service.infer(images[0], timeout=120)
            snapshot = service.metrics.snapshot()
        assert not first.cached.any()
        assert second.cached.all()
        assert np.array_equal(first.scores, second.scores)
        assert second.exit_checkpoints[0] == first.exit_checkpoints[0]
        assert snapshot["cache_hits"] == 1
        assert service.cache.stats()["hits"] == 1

    def test_submit_after_close_raises(self, mapper, images):
        service = ScInferenceService(
            mapper, ServiceConfig(backend="sc-fast", num_workers=1)
        )
        service.close()
        service.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            service.submit(images[0])

    def test_rejects_malformed_requests(self, mapper):
        """Fail-fast: malformed requests raise in the submitting caller,
        never as a worker-side future error."""
        config = ServiceConfig(backend="sc-fast", num_workers=1)
        with ScInferenceService(mapper, config) as service:
            with pytest.raises(ShapeError):
                service.submit(np.zeros((28, 28)))
            with pytest.raises(EncodingError):
                service.submit(np.full((1, 1, 28, 28), 2.0))
            with pytest.raises(EncodingError):
                service.submit(np.zeros((1, 1, 28, 28), dtype="U1"))
            with pytest.raises(ConfigurationError):
                service.submit(np.zeros((0, 1, 28, 28)))

    def test_unmappable_shapes_fail_at_submit(self, mapper):
        """A shape the network cannot map is a caller error, not a replica
        crash: no restart, no retry, no plane built for it."""
        config = ServiceConfig(backend="bit-exact-packed", num_workers=1)
        with ScInferenceService(mapper, config) as service:
            for shape in ((1, 20, 20), (2, 28, 28)):
                with pytest.raises(ShapeError):
                    service.submit(np.full(shape, 0.5))
            snapshot = service.snapshot()
        assert snapshot["faults"]["restarts"] == 0
        assert snapshot["requests"] == 0

    def test_two_shapes_in_one_window_both_answer(self, mapper, images):
        """A 29x29 image maps onto the 28x28 network (the pooling trims the
        extra row and column); merged with a 28x28 one, each is bucketed by
        shape and answered as if it ran alone."""
        wide = np.random.default_rng(3).random((1, 29, 29))
        direct = create_backend("bit-exact-packed", mapper)
        config = ServiceConfig(
            backend="bit-exact-packed",
            num_workers=1,
            max_wait_ms=200.0,
            early_exit=False,
            cache_capacity=0,
        )
        with ScInferenceService(mapper, config) as service:
            futures = [service.submit(images[0]), service.submit(wide)]
            narrow_answer, wide_answer = [f.result(timeout=120) for f in futures]
            snapshot = service.snapshot()
        assert np.array_equal(narrow_answer.scores, direct.forward(images[:1]))
        assert np.array_equal(wide_answer.scores, direct.forward(wide))
        assert snapshot["faults"]["restarts"] == 0

    def test_rejects_invalid_options_in_caller(self, mapper, images):
        config = ServiceConfig(backend="bit-exact-packed", num_workers=1)
        with ScInferenceService(mapper, config) as service:
            with pytest.raises(ConfigurationError, match="exceeds"):
                service.submit(
                    images[:1],
                    PredictOptions(stream_length=mapper.stream_length * 2),
                )
            with pytest.raises(ConfigurationError):
                service.submit(images[:1], PredictOptions(deadline_ms=0.0))

    def test_explicit_schedule_needs_progressive_shards(self, mapper, images):
        config = ServiceConfig(backend="float", num_workers=1)
        with ScInferenceService(mapper, config) as service:
            with pytest.raises(ConfigurationError, match="progressive"):
                service.submit(images[:1], PredictOptions(stream_length=64))


class TestPerRequestOptions:
    """PredictOptions reach the serving layer (the PR's acceptance bar)."""

    def _service(self, mapper, **overrides):
        settings = dict(
            backend="bit-exact-packed",
            num_workers=1,
            max_batch_size=8,
            max_wait_ms=1.0,
            cache_capacity=64,
            early_exit=False,
        )
        settings.update(overrides)
        return ScInferenceService(mapper, ServiceConfig(**settings))

    def test_reduced_stream_length_reads_exact_prefix(self, mapper, images):
        reference = create_backend("bit-exact-packed", mapper)
        with self._service(mapper, cache_capacity=0) as service:
            response = service.infer(
                images[:2], PredictOptions(stream_length=64), timeout=300
            )
        assert np.all(response.exit_checkpoints == 64)
        assert np.array_equal(
            response.scores,
            reference.forward_partial(images[:2], (64,))[-1],
        )

    def test_different_schedules_never_share_a_cache_entry(
        self, mapper, images
    ):
        with self._service(mapper) as service:
            first = service.infer(images[:1], timeout=300)
            assert not first.cached[0]
            # Same image, different stream length: a must-miss.
            shorter = service.infer(
                images[:1], PredictOptions(stream_length=64), timeout=300
            )
            assert not shorter.cached[0]
            assert shorter.exit_checkpoints[0] == 64
            # Same image, different checkpoint schedule: a must-miss too.
            rescheduled = service.infer(
                images[:1],
                PredictOptions(checkpoints=(32, 96), early_exit=True),
                timeout=300,
            )
            assert not rescheduled.cached[0]
            # Identical options do hit their own entries.
            assert service.infer(images[:1], timeout=300).cached[0]
            assert service.infer(
                images[:1], PredictOptions(stream_length=64), timeout=300
            ).cached[0]

    def test_expired_deadline_lowers_exit_checkpoints(self, mapper, images):
        """A tight per-request deadline measurably lowers exit checkpoints."""
        with self._service(mapper, cache_capacity=0) as service:
            unhurried = service.infer(images[:2], timeout=300)
            hurried = service.infer(
                images[2:4], PredictOptions(deadline_ms=1e-6), timeout=300
            )
        first_checkpoint = service.checkpoints[0]
        assert np.all(unhurried.exit_checkpoints == mapper.stream_length)
        assert np.all(hurried.exit_checkpoints == first_checkpoint)
        assert hurried.exit_checkpoints.max() < unhurried.exit_checkpoints.min()
        # The truncated scores are the exact stream prefix at the exit.
        reference = create_backend("bit-exact-packed", mapper)
        prefix = reference.forward_partial(images[2:4], (first_checkpoint,))
        assert np.array_equal(hurried.scores, prefix[-1])

    def test_deadline_results_never_enter_the_cache(self, mapper, images):
        with self._service(mapper) as service:
            hurried = service.infer(
                images[4:5], PredictOptions(deadline_ms=1e-6), timeout=300
            )
            assert hurried.exit_checkpoints[0] == service.checkpoints[0]
            # A later default request must recompute at full length, not
            # inherit the wall-clock-truncated scores.
            follow_up = service.infer(images[4:5], timeout=300)
            assert not follow_up.cached[0]
            assert follow_up.exit_checkpoints[0] == mapper.stream_length

    def test_deadline_requests_may_read_cached_full_results(
        self, mapper, images
    ):
        with self._service(mapper) as service:
            service.infer(images[:1], timeout=300)
            hurried = service.infer(
                images[:1], PredictOptions(deadline_ms=1e-6), timeout=300
            )
            # A cached full-quality answer is instantaneous: better than
            # any truncation the deadline could buy.
            assert hurried.cached[0]
            assert hurried.exit_checkpoints[0] == mapper.stream_length

    def test_partly_cached_response_carries_every_checkpoint(
        self, mapper, images
    ):
        """Cached and computed rows cover the same schedule, so one
        response stacks their planes -- a deadline-capped row included."""
        reference = create_backend("bit-exact-packed", mapper)
        with self._service(mapper) as service:
            service.infer(images[:1], timeout=300)
            mixed = service.infer(
                images[:2], PredictOptions(deadline_ms=1e-6), timeout=300
            )
        planes = reference.forward_partial(images[:2], service.checkpoints)
        assert mixed.cached.tolist() == [True, False]
        assert mixed.checkpoints == service.checkpoints
        assert np.array_equal(mixed.checkpoint_scores, planes)
        assert mixed.exit_checkpoints.tolist() == [
            mapper.stream_length,
            service.checkpoints[0],
        ]

    def test_mixed_option_batches_stay_bit_identical(self, mapper, images):
        """One merged batch, three different schedules: every request is
        answered as if it ran alone (bucketed evaluation)."""
        reference = create_backend("bit-exact-packed", mapper)
        with self._service(
            mapper, cache_capacity=0, max_wait_ms=50.0
        ) as service:
            futures = [
                service.submit(images[:2]),
                service.submit(images[2:4], PredictOptions(stream_length=64)),
                service.submit(images[4:6], PredictOptions(early_exit=True)),
            ]
            default, shorter, exiting = [
                f.result(timeout=300) for f in futures
            ]
        assert np.array_equal(default.scores, reference.forward(images[:2]))
        assert np.array_equal(
            shorter.scores, reference.forward_partial(images[2:4], (64,))[-1]
        )
        partial = reference.forward_partial(
            images[4:6], service.checkpoints
        )
        for row, exit_point in enumerate(exiting.exit_checkpoints):
            k = service.checkpoints.index(int(exit_point))
            assert np.array_equal(exiting.scores[row], partial[k, row])

    def test_per_request_early_exit_override(self, mapper, images):
        """early_exit=True on a default-off service takes the policy path."""
        with self._service(mapper, cache_capacity=0) as service:
            response = service.infer(
                images, PredictOptions(early_exit=True), timeout=300
            )
        assert set(np.unique(response.exit_checkpoints)) <= set(
            service.checkpoints
        )

    def test_unknown_backend_fails_at_construction(self, mapper):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            ScInferenceService(mapper, ServiceConfig(backend="typo"))


class TestServiceConfig:
    def test_defaults_resolve(self):
        config = ServiceConfig()
        assert config.backend == "bit-exact-packed"
        assert config.max_batch_size >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": ""},
            {"backend": ("a", "b")},
            {"max_batch_size": 0},
            {"max_wait_ms": -1.0},
            {"num_workers": 0},
            {"cache_capacity": -1},
            {"checkpoint_fractions": ()},
            {"checkpoint_fractions": (0.5, 0.25)},
            {"checkpoint_fractions": (0.0, 1.0)},
            {"margin": -0.5},
            {"stable_checkpoints": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServiceConfig(**kwargs)


class TestBenchServe:
    def test_smoke_run_meets_acceptance(self, tmp_path):
        """The load benchmark writes BENCH_serve.json with >= 1.5x mean
        stream-cycle reduction at N = 1024 and unchanged accuracy."""
        spec = importlib.util.spec_from_file_location(
            "bench_serve",
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "bench_serve.py",
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        output = tmp_path / "BENCH_serve.json"
        report = bench.run(smoke=True, output=output)
        on_disk = json.loads(output.read_text())
        assert on_disk["stream_length"] == 1024
        early = on_disk["early_exit"]
        assert early["cycle_reduction"] >= 1.5
        assert early["accuracy_unchanged"] is True
        assert early["accuracy_early"] == early["accuracy_full"]
        assert early["prediction_agreement"] == 1.0
        assert on_disk["packed_prefix"]["last_checkpoint_equals_forward"]
        assert on_disk["packed_prefix"]["early_exit_predictions_match_full"]
        assert on_disk["cache"]["hit_rate"] == pytest.approx(2 / 3)
        # The tracing section runs the bit-exact product's kernels.
        kernels = on_disk["observability"]["kernels_observed"]
        assert {"fused_counts", "recurrence_words"} <= set(kernels)
        assert report["early_exit"]["cycle_reduction"] >= 1.5
