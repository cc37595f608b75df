"""Observability: tracing, kernel-tier counters, exposition, event log.

Pins down the contracts of :mod:`repro.obs` and its serving integration:

* **trace exactness** -- at ``trace_sample_rate=1.0`` every response
  carries a :class:`~repro.obs.TraceSummary` whose queue + service split
  sums to the measured latency exactly (same monotonic marks);
* **span nesting** -- context-manager spans parent under the innermost
  enclosing span of their own thread, even when many threads record into
  one trace concurrently;
* **sampling determinism** -- rate 0 never allocates a trace, rate 1
  always does, and fractional sampling is reproducible under a seed;
* **kernel-tier equivalence** -- the same workload drives the same
  kernel seams with bit-identical call/byte totals whether the calls
  landed on the compiled native tier or the NumPy reference tier;
* **export** -- the Prometheus text exposition of a full service
  snapshot parses cleanly, and the JSONL event log captures traces plus
  ``repro`` logger records.
"""

import json
import logging
import threading

import numpy as np
import pytest
from nets import tiny_cnn

from repro.backends import create_backend
from repro.config import ServiceConfig
from repro.errors import ConfigurationError
from repro.nn.sc_layers import ScNetworkMapper
from repro.obs import (
    JsonlEventLog,
    KernelCounters,
    Trace,
    Tracer,
    current_span,
    merge_kernel_snapshots,
    prometheus_text,
    validate_exposition,
)
from repro.sc import native
from repro.serve import ScInferenceService
from repro.serve.metrics import ServiceMetrics


@pytest.fixture(scope="module")
def mapper():
    return ScNetworkMapper(tiny_cnn(), stream_length=128, seed=7)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((6, 1, 28, 28))


def _service_config(**overrides) -> ServiceConfig:
    defaults = dict(
        backend="sc-fast",
        max_batch_size=8,
        max_wait_ms=2.0,
        num_workers=2,
        cache_capacity=0,
        trace_sample_rate=1.0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestTracerSampling:
    def test_rate_zero_never_samples(self):
        tracer = Tracer(sample_rate=0.0)
        assert all(tracer.begin() is None for _ in range(20))
        # The off path is a single comparison: not even the decision
        # counter moves, so a production service at rate 0 is untouched.
        assert tracer.stats()["decisions"] == 0
        assert tracer.stats()["sampled"] == 0

    def test_rate_one_always_samples(self):
        tracer = Tracer(sample_rate=1.0)
        traces = [tracer.begin() for _ in range(20)]
        assert all(isinstance(trace, Trace) for trace in traces)
        stats = tracer.stats()
        assert stats["decisions"] == stats["sampled"] == 20

    def test_fractional_sampling_is_seed_deterministic(self):
        decisions = []
        for _ in range(2):
            tracer = Tracer(sample_rate=0.5, seed=42)
            decisions.append(
                [tracer.begin() is not None for _ in range(64)]
            )
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(sample_rate=1.0, capacity=3)
        ids = []
        for _ in range(5):
            trace = tracer.begin()
            ids.append(trace.trace_id)
            tracer.finish(trace)
        recent = [t["trace_id"] for t in tracer.recent()]
        assert recent == ids[-3:]
        assert [t["trace_id"] for t in tracer.recent(limit=1)] == ids[-1:]
        stats = tracer.stats()
        assert stats["finished"] == 5 and stats["buffered"] == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_service_config_validates_tracing_fields(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(trace_sample_rate=2.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(trace_capacity=0)


class TestSpanNesting:
    def test_explicit_spans_default_to_root_parent(self):
        trace = Trace("t-test")
        outer = trace.add_span("compute", 1.0, 2.0, batch=3)
        child = trace.add_span("forward", 1.1, 1.9, parent=outer)
        assert outer.parent_id == 0
        assert child.parent_id == outer.span_id
        assert outer.annotations == {"batch": 3}
        assert child.duration_ms == pytest.approx(800.0)

    def test_context_manager_nesting(self):
        trace = Trace("t-test")
        assert current_span() is None
        with trace.span("outer") as outer:
            assert current_span() is outer
            with trace.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert current_span() is outer
        assert current_span() is None
        assert outer.parent_id == 0
        assert trace.find("inner").duration_ms is not None

    def test_concurrent_threads_nest_independently(self):
        # Each worker opens outer -> inner in its own thread; the
        # contextvar is per-thread, so every inner must parent under its
        # *own* thread's outer, never a sibling's.
        trace = Trace("t-test")
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        pairs = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            barrier.wait()
            with trace.span("outer", thread=index) as outer:
                with trace.span("inner", thread=index) as inner:
                    pass
            with lock:
                pairs.append((outer, inner))

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(pairs) == n_threads
        for outer, inner in pairs:
            assert outer.parent_id == 0
            assert inner.parent_id == outer.span_id
            assert inner.annotations["thread"] == outer.annotations["thread"]
        # 1 root + 2 spans per thread, all retained.
        assert len(trace.spans) == 1 + 2 * n_threads

    def test_stage_ms_accumulates_repeated_names(self):
        trace = Trace("t-test")
        trace.add_span("compute", 0.0, 0.010)
        trace.add_span("compute", 0.020, 0.025)
        trace.add_span("cache_write", 0.030, 0.031)
        stages = trace.stage_ms()
        assert stages["compute"] == pytest.approx(15.0)
        assert stages["cache_write"] == pytest.approx(1.0)

    def test_to_dict_reports_relative_milliseconds(self):
        trace = Trace("t-test")
        start = trace.started_at
        trace.add_span("queue", start + 0.001, start + 0.003)
        payload = trace.to_dict()
        assert payload["trace_id"] == "t-test"
        root, queue = payload["spans"]
        assert root["span_id"] == 0 and root["parent_id"] is None
        assert queue["start_ms"] == pytest.approx(1.0, abs=1e-6)
        assert queue["duration_ms"] == pytest.approx(2.0, abs=1e-6)


class TestServiceTracing:
    def test_every_response_traced_with_exact_split(self, mapper, images):
        with ScInferenceService(mapper, _service_config()) as service:
            futures = [service.submit(images[i % 6]) for i in range(12)]
            responses = [f.result(timeout=60) for f in futures]
            stats = service.tracer.stats()
        assert stats["decisions"] == stats["sampled"] == 12
        for response in responses:
            trace = response.trace
            assert trace is not None
            assert trace.queue_ms >= 0.0 and trace.service_ms > 0.0
            assert trace.queue_ms + trace.service_ms == pytest.approx(
                trace.latency_ms, abs=1e-6
            )
            assert trace.replica == "sc-fast"
            assert trace.worker in (0, 1)
            assert trace.batch_seq is not None
            assert trace.batch_images >= 1
            assert trace.retries == 0 and not trace.degraded
            for stage in ("submit", "queue", "compute"):
                assert stage in trace.stages, trace.stages

    def test_forward_span_nests_under_compute(self, mapper, images):
        with ScInferenceService(mapper, _service_config()) as service:
            service.submit(images[0]).result(timeout=60)
            (payload,) = service.tracer.recent(limit=1)
        spans = {span["name"]: span for span in payload["spans"]}
        compute = spans["compute"]
        forward = spans.get("forward_partial") or spans.get("forward")
        assert compute["parent_id"] == 0
        assert forward["parent_id"] == compute["span_id"]
        assert forward["duration_ms"] <= compute["duration_ms"] + 1e-6

    def test_progressive_trace_carries_checkpoint_costs(self, mapper, images):
        config = _service_config(early_exit=True)
        with ScInferenceService(mapper, config) as service:
            response = service.submit(images[0]).result(timeout=60)
        trace = response.trace
        assert trace.checkpoints, "progressive request lost its schedule"
        assert len(trace.checkpoint_ms) == len(trace.checkpoints)
        # Pro-rata attribution: cost grows monotonically with cycles and
        # the last checkpoint carries the full measured forward time.
        assert list(trace.checkpoint_ms) == sorted(trace.checkpoint_ms)
        assert trace.checkpoint_ms[-1] > 0.0

    def test_cache_hit_trace_has_zero_queue(self, mapper, images):
        config = _service_config(cache_capacity=64)
        with ScInferenceService(mapper, config) as service:
            service.submit(images[0]).result(timeout=60)
            response = service.submit(images[0]).result(timeout=60)
        trace = response.trace
        assert response.cached.all()
        assert trace.cached_images == 1
        assert trace.queue_ms == 0.0
        assert trace.replica is None and trace.batch_seq is None
        assert trace.service_ms == pytest.approx(trace.latency_ms)

    def test_rate_zero_leaves_responses_untraced(self, mapper, images):
        config = _service_config(trace_sample_rate=0.0)
        with ScInferenceService(mapper, config) as service:
            responses = [
                service.submit(images[i]).result(timeout=60) for i in range(3)
            ]
            stats = service.tracer.stats()
        assert all(response.trace is None for response in responses)
        assert stats["decisions"] == 0 and stats["buffered"] == 0

    def test_snapshot_extends_metrics_with_obs_sections(self, mapper, images):
        with ScInferenceService(mapper, _service_config()) as service:
            service.submit(images[0]).result(timeout=60)
            snapshot = service.snapshot()
        assert snapshot["requests"] == 1
        assert "kernels" in snapshot and "tracing" in snapshot
        assert isinstance(snapshot["workspaces"], list)
        assert snapshot["tracing"]["finished"] == 1
        assert snapshot["queue_time_ms"]["histogram"]["count"] == 1
        assert snapshot["service_time_ms"]["histogram"]["count"] == 1


class TestKernelCounters:
    def test_record_snapshot_and_totals(self):
        counters = KernelCounters()
        counters.record("fused_counts", "numpy", 0.5, 100)
        counters.record("fused_counts", "numpy", 0.25, 50)
        counters.record("fused_counts", "native", 0.1, 150)
        snap = counters.snapshot()
        assert snap["fused_counts"]["numpy"] == {
            "calls": 2,
            "seconds": 0.75,
            "bytes": 150,
        }
        assert counters.totals() == {
            "fused_counts": {"calls": 3, "bytes": 300}
        }
        counters.reset()
        assert counters.snapshot() == {}

    def test_merge_kernel_snapshots(self):
        a = KernelCounters()
        b = KernelCounters()
        a.record("fused_chain", "numpy", 1.0, 10)
        b.record("fused_chain", "native", 2.0, 10)
        b.record("stream_words", "numpy", 0.5, 5)
        merged = merge_kernel_snapshots([a.snapshot(), b.snapshot()])
        assert merged["fused_chain"]["numpy"]["calls"] == 1
        assert merged["fused_chain"]["native"]["calls"] == 1
        assert merged["stream_words"]["numpy"]["bytes"] == 5

    def test_packed_backend_counts_kernel_seams(self, mapper, images):
        backend = create_backend("bit-exact-packed", mapper, use_native=False)
        backend.forward(images[:2])
        snap = backend.kernel_snapshot()
        assert snap, "forward recorded no kernel invocations"
        for kernel, tiers in snap.items():
            assert set(tiers) == {"numpy"}, (kernel, tiers)
            for cell in tiers.values():
                assert cell["calls"] >= 1
                assert cell["bytes"] > 0
                assert cell["seconds"] >= 0.0

    def test_tier_totals_bit_identical(self, mapper, images):
        """Same workload, same seams, same bytes -- regardless of tier."""
        # Build the mapper's stream plane first: whichever backend builds
        # it books the build, and this test compares steady-state forwards.
        create_backend("bit-exact-packed", mapper).forward(images[:2])
        packed = create_backend("bit-exact-packed", mapper, use_native=False)
        compiled = create_backend("bit-exact-native", mapper)
        packed.forward(images[:2])
        compiled.forward(images[:2])
        assert packed.counters.totals() == compiled.counters.totals()
        if native.available():
            tiers = {
                tier
                for cells in compiled.kernel_snapshot().values()
                for tier in cells
            }
            assert "native" in tiers

    def test_workspace_stats_after_forward(self, mapper, images):
        backend = create_backend("bit-exact-packed", mapper)
        backend.forward(images[:1])
        stats = backend.workspace_stats()
        assert stats["buffers"] >= 1
        assert stats["peak_nbytes"] >= stats["nbytes"] > 0


class TestServiceMetricsSplit:
    def test_queue_service_series_and_histograms(self):
        metrics = ServiceMetrics()
        for i in range(10):
            metrics.record_request(
                latency_seconds=0.010 * (i + 1),
                exit_checkpoints=[64],
                stream_length=128,
                queue_seconds=0.001 * (i + 1),
                service_seconds=0.009 * (i + 1),
            )
        snapshot = metrics.snapshot()
        queue = snapshot["queue_time_ms"]
        service = snapshot["service_time_ms"]
        assert queue["p50"] == pytest.approx(5.5)
        assert service["mean"] == pytest.approx(49.5)
        hist = queue["histogram"]
        assert hist["count"] == 10
        assert sum(hist["counts"]) == 10
        assert hist["sum"] == pytest.approx(55.0)
        # queue times 1..10 ms against bounds (.5, 1, 2, 5, 10, ...):
        # le-semantics puts exactly 1.0 in the le=1 bucket, and
        # 6..10 ms (five values) in the le=10 bucket.
        bounds = hist["le"]
        assert hist["counts"][bounds.index(1.0)] == 1
        assert hist["counts"][bounds.index(10.0)] == 5

    def test_split_is_optional(self):
        metrics = ServiceMetrics()
        metrics.record_request(
            latency_seconds=0.01, exit_checkpoints=[128], stream_length=128
        )
        snapshot = metrics.snapshot()
        assert snapshot["queue_time_ms"] is None
        assert snapshot["service_time_ms"] is None
        assert snapshot["latency_ms"]["p50"] == pytest.approx(10.0)

    def test_recent_p99_copies_window_under_lock(self):
        metrics = ServiceMetrics()
        assert metrics.recent_p99_ms() is None
        for latency in (0.001, 0.002, 0.100):
            metrics.record_request(
                latency_seconds=latency,
                exit_checkpoints=[128],
                stream_length=128,
            )
        p99 = metrics.recent_p99_ms()
        assert p99 is not None
        # The read must not hold the lock during the percentile: a
        # concurrent writer gets in while recent_p99_ms is mid-flight.
        done = threading.Event()

        def hammer():
            for _ in range(200):
                metrics.record_request(
                    latency_seconds=0.001,
                    exit_checkpoints=[128],
                    stream_length=128,
                )
            done.set()

        thread = threading.Thread(target=hammer)
        thread.start()
        for _ in range(50):
            assert metrics.recent_p99_ms() is not None
        thread.join(timeout=10)
        assert done.is_set()


class TestExport:
    def test_service_snapshot_exposition_validates(self, mapper, images):
        # The packed backend so the kernel-tier counter families render.
        config = _service_config(backend="bit-exact-packed", num_workers=1)
        with ScInferenceService(mapper, config) as service:
            futures = [service.submit(images[i]) for i in range(4)]
            for future in futures:
                future.result(timeout=60)
            snapshot = service.snapshot()
        text = prometheus_text(snapshot)
        families = validate_exposition(text)
        for name in (
            "repro_requests_total",
            "repro_latency_ms",
            "repro_queue_time_ms",
            "repro_service_time_ms",
            "repro_kernel_calls_total",
            "repro_traces_sampled_total",
        ):
            assert name in families, sorted(families)
        assert families["repro_queue_time_ms"] == "histogram"
        assert families["repro_requests_total"] == "counter"

    def test_validate_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            validate_exposition("repro_orphan_metric 1.0\n")
        with pytest.raises(ValueError):
            validate_exposition(
                "# TYPE repro_x counter\nrepro_x not-a-number\n"
            )
        with pytest.raises(ValueError):
            validate_exposition(
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 5\n'
                'repro_h_bucket{le="2"} 3\n'
                'repro_h_bucket{le="+Inf"} 3\n'
            )

    def test_jsonl_event_log_captures_logger_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        logger = logging.getLogger("repro.test_obs")
        logger.setLevel(logging.INFO)
        with JsonlEventLog(path) as events:
            events.emit("trace", trace_id="t1", latency_ms=5.0)
            handler = events.logging_handler()
            logger.addHandler(handler)
            try:
                logger.warning(
                    "replica %d restarted",
                    3,
                    extra={"obs_event": {"kind": "replica_restart", "worker": 3}},
                )
                logger.info("plain record")
            finally:
                logger.removeHandler(handler)
        events.emit("dropped", after="close")
        lines = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert [event["kind"] for event in lines] == [
            "trace",
            "replica_restart",
            "log",
        ]
        assert lines[0]["latency_ms"] == 5.0
        assert lines[1]["worker"] == 3
        assert lines[1]["message"] == "replica 3 restarted"
        assert lines[2]["level"] == "INFO"

    def test_service_event_log_streams_traces(self, mapper, images, tmp_path):
        path = tmp_path / "service_events.jsonl"
        config = _service_config(event_log_path=str(path))
        with ScInferenceService(mapper, config) as service:
            futures = [service.submit(images[i]) for i in range(3)]
            for future in futures:
                future.result(timeout=60)
        lines = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        traces = [event for event in lines if event["kind"] == "trace"]
        assert len(traces) == 3
        for event in traces:
            assert event["summary"]["queue_ms"] + event["summary"][
                "service_ms"
            ] == pytest.approx(event["summary"]["latency_ms"], abs=1e-6)
            names = {span["name"] for span in event["spans"]}
            assert {"request", "submit", "queue", "compute"} <= names
