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
  snapshot keeps every family, type and label name; a registry view is
  those families under a ``model`` label (and ``worker`` for a fleet
  pool); the validator rejects what Prometheus rejects; and the JSONL
  event log captures traces plus ``repro`` logger records.
"""

import json
import logging
import re
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
    registry_prometheus_text,
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


#: ``{family: (type, label names)}`` of a traced bit-exact service
#: snapshot's exposition: every family a service renders.  The workspace
#: gauges label the replica ``replica``, under a fleet's ``worker``.
SERVICE_FAMILIES = {
    "repro_requests_total": ("counter", ()),
    "repro_images_total": ("counter", ()),
    "repro_cache_hits_total": ("counter", ()),
    "repro_batches_total": ("counter", ()),
    "repro_cache_hit_rate": ("gauge", ()),
    "repro_mean_batch_size": ("gauge", ()),
    "repro_throughput_images_per_sec": ("gauge", ()),
    "repro_mean_exit_checkpoint": ("gauge", ()),
    "repro_cycle_reduction": ("gauge", ()),
    "repro_latency_ms": ("summary", ("quantile",)),
    "repro_latency_ms_mean": ("gauge", ()),
    "repro_queue_time_ms": ("histogram", ("le",)),
    "repro_service_time_ms": ("histogram", ("le",)),
    "repro_shed_requests_total": ("counter", ("reason",)),
    "repro_degraded_requests_total": ("counter", ()),
    "repro_batch_retries_total": ("counter", ()),
    "repro_replica_restarts_total": ("counter", ()),
    "repro_failed_requests_total": ("counter", ()),
    "repro_cancelled_requests_total": ("counter", ()),
    "repro_kernel_calls_total": ("counter", ("kernel", "tier")),
    "repro_kernel_seconds_total": ("counter", ("kernel", "tier")),
    "repro_kernel_bytes_total": ("counter", ("kernel", "tier")),
    "repro_workspace_bytes": ("gauge", ("replica",)),
    "repro_workspace_peak_bytes": ("gauge", ("replica",)),
    "repro_workspace_buffers": ("gauge", ("replica",)),
    "repro_trace_sample_rate": ("gauge", ()),
    "repro_traces_sampled_total": ("counter", ()),
    "repro_traces_buffered": ("gauge", ()),
}


def _samples(text: str) -> list[tuple[str, dict]]:
    """``(family, labels)`` of every sample of a valid exposition."""
    families = validate_exposition(text)
    samples = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        head, _, labels = line.partition("{")
        name = head.split()[0]
        family = name if name in families else name.rsplit("_", 1)[0]
        pairs = re.findall(r'(\w+)="([^"]*)"', labels)
        samples.append((family, dict(pairs)))
    return samples


@pytest.fixture(scope="module")
def service_snapshot(mapper, images):
    """A traced 4-request burst's snapshot on the packed backend."""
    config = _service_config(backend="bit-exact-packed", num_workers=1)
    with ScInferenceService(mapper, config) as service:
        futures = [service.submit(images[i]) for i in range(4)]
        for future in futures:
            future.result(timeout=60)
        return service.snapshot()


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


class TestExport:
    def test_service_snapshot_exposition_validates(self, service_snapshot):
        # The whole single-service exposition: every family, in order,
        # with its type and its label names.
        text = prometheus_text(service_snapshot)
        families = validate_exposition(text)
        labels = {name: set() for name in families}
        for family, sample_labels in _samples(text):
            labels[family].update(sample_labels)
        assert {
            name: (kind, tuple(sorted(labels[name])))
            for name, kind in families.items()
        } == SERVICE_FAMILIES
        assert list(families) == list(SERVICE_FAMILIES)

    def test_registry_exposition_labels_every_pool(self, service_snapshot):
        fleet = {
            "fleet": {
                "completed": 8,
                "workers_ready": 2,
                "worker_states": {"0": "ready", "1": "ready"},
            },
            "workers": {0: service_snapshot, 1: service_snapshot},
        }
        catalog = {
            "svc": {
                "kind": "service",
                "generation": 1,
                "snapshot": service_snapshot,
            },
            "fleet": {"kind": "fleet", "generation": 2, "snapshot": fleet},
            "cold": None,
        }
        text = registry_prometheus_text(catalog)
        samples = _samples(text)
        assert 'repro_model_up{model="cold"} 0.0' in text.splitlines()
        registry_families = {
            "repro_registry_models",
            "repro_registry_loaded",
            "repro_model_up",
            "repro_model_generation",
        }
        # Every pool sample leads with its model label; a fleet pool's
        # service families then carry the worker.
        pool = [
            (family, labels)
            for family, labels in samples
            if family not in registry_families
        ]
        assert all(list(labels)[0] == "model" for _, labels in pool)
        svc = {f for f, labels in pool if labels["model"] == "svc"}
        assert svc == set(SERVICE_FAMILIES)
        assert all(
            "worker" not in labels
            for _, labels in pool
            if labels["model"] == "svc"
        )
        for slot in ("0", "1"):
            served = {
                family
                for family, labels in pool
                if list(labels)[:2] == ["model", "worker"]
                and labels["model"] == "fleet"
                and labels["worker"] == slot
            }
            # The router's per-slot liveness gauge is labelled too.
            expected = set(SERVICE_FAMILIES) | {"repro_fleet_worker_up"}
            assert served == expected, slot
        # A one-model catalog is its pool's own, unlabelled exposition.
        for name in ("svc", "fleet"):
            assert registry_prometheus_text(
                {name: catalog[name]}
            ) == prometheus_text(catalog[name]["snapshot"])

    def test_validate_rejects_malformed_text(self):
        for text, reason in (
            ("repro_orphan_metric 1.0\n", "no # TYPE"),
            (
                "# TYPE repro_x counter\nrepro_x not-a-number\n",
                "non-numeric",
            ),
            ('# TYPE repro_x counter\nrepro_x{a="1"}\n', "non-numeric"),
            (
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 5\n'
                'repro_h_bucket{le="2"} 3\n'
                'repro_h_bucket{le="+Inf"} 3\n',
                "not cumulative",
            ),
            (
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{worker="0",le="+Inf"} 1\n'
                'repro_h_bucket{worker="1",le="1"} 5\n'
                'repro_h_bucket{worker="1",le="+Inf"} 3\n',
                "not cumulative",
            ),
            (
                '# TYPE repro_g gauge\nrepro_g{worker="0",worker="1"} 1\n',
                "repeated label",
            ),
            (
                "# TYPE repro_g gauge\nrepro_g 1\n# TYPE repro_g gauge\n",
                "second # TYPE",
            ),
            (
                '# TYPE repro_g gauge\nrepro_g{a="1"} 1\nrepro_g{a="1"} 2\n',
                "repeated series",
            ),
            (
                '# TYPE repro_g gauge\nrepro_g{a="1"} 1\n'
                "# TYPE repro_c counter\nrepro_c 1\n"
                'repro_g{a="2"} 2\n',
                "outside its family's group",
            ),
        ):
            with pytest.raises(ValueError, match=reason):
                validate_exposition(text)

    def test_validate_accepts_labelled_histogram_series(self):
        # One histogram, two series (as a fleet renders one per worker):
        # each is cumulative on its own, ends at +Inf and matches its
        # own _count.
        text = (
            "# HELP repro_h Two series.\n"
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{worker="0",le="1.0"} 1\n'
            'repro_h_bucket{worker="0",le="+Inf"} 2\n'
            'repro_h_sum{worker="0"} 3.0\n'
            'repro_h_count{worker="0"} 2\n'
            'repro_h_bucket{worker="1",le="1.0"} 0\n'
            'repro_h_bucket{worker="1",le="+Inf"} 1\n'
            'repro_h_sum{worker="1"} 2.0\n'
            'repro_h_count{worker="1"} 1\n'
        )
        assert validate_exposition(text) == {"repro_h": "histogram"}
        with pytest.raises(ValueError, match="_count"):
            validate_exposition(
                text.replace('_count{worker="1"} 1', '_count{worker="1"} 2')
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
