"""Fleet serving: RPC, error fidelity, supervision, failover, chaos.

Process-granularity robustness of :mod:`repro.serve.fleet`, mirroring
the in-process coverage of ``tests/test_faults.py``:

* **RPC framing** -- length-prefixed frames round-trip, clean EOF reads
  as ``None``, truncation and corrupt headers are loud
  (:class:`~repro.serve.rpc.RpcConnectionError`);
* **error fidelity** -- typed errors cross the boundary as themselves
  with ``reason`` and cause chain preserved
  (:class:`~repro.errors.RemoteWorkerError` stand-ins), and survive
  pickling;
* **restart bit-exactness** -- a worker killed mid-batch is respawned
  from the artifact and the retried request's scores are bit-identical
  to the fault-free single-process run (the PR 5 rehydration mechanism
  under fire);
* **hang detection, hedging, admission, drain, rolling restart**;
* **chaos** -- >= 500 requests under injected ``WorkerKill`` +
  ``WorkerHang`` + ``SlowWorker``: every future resolves, non-degraded
  scores stay bit-identical, and the router metrics match the plan's
  ``fired`` accounting.

The whole module is skipped when the host cannot spawn subprocesses.
"""

import io
import os
import pickle
import threading
import time

import numpy as np
import pytest
from nets import tiny_cnn

from repro.api import ScModel, Session
from repro.backends import create_backend
from repro.config import FleetConfig, PredictOptions, ServiceConfig
from repro.errors import (
    ConfigurationError,
    FleetError,
    InferenceError,
    RemoteWorkerError,
    ServiceOverloadError,
    ShapeError,
)
from repro.serve import FaultPlan, FleetRouter, SlowWorker, WorkerHang, WorkerKill
from repro.serve.rpc import (
    FrameStream,
    MAX_FRAME_BYTES,
    RpcConnectionError,
    decode_error,
    encode_error,
)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A saved ScModel every fleet worker process rehydrates from."""
    model = ScModel(tiny_cnn(), weight_bits=10, stream_length=128, seed=7)
    return str(model.save(tmp_path_factory.mktemp("fleet") / "artifact"))


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((6, 1, 28, 28))


@pytest.fixture(scope="module")
def reference(artifact, images):
    """Fault-free bit-exact scores from a single in-process backend."""
    backend = create_backend("bit-exact-packed", ScModel.load(artifact).mapper())
    return backend.forward(images)


def _service_config(**overrides):
    base = dict(
        backend="bit-exact-packed",
        max_batch_size=8,
        num_workers=1,
        cache_capacity=0,
        early_exit=False,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def _fleet_config(**overrides):
    # Heartbeat tolerance is deliberately loose (1.5 s): a busy worker's
    # reader thread can be GIL-starved for a few hundred ms while the
    # service computes, and that must not read as a hang.  Real hangs
    # (hang_s=60) are still detected in ~1.5 s.
    base = dict(
        num_workers=2,
        service=_service_config(),
        heartbeat_interval_ms=100.0,
        heartbeat_misses=15,
        restart_backoff_ms=10.0,
        worker_start_timeout_s=120.0,
    )
    base.update(overrides)
    return FleetConfig(**base)


# ---------------------------------------------------------------------------
# RPC framing
# ---------------------------------------------------------------------------


class TestFrameStream:
    def _pair(self):
        """Two FrameStreams connected through an in-memory pipe."""
        r_fd, w_fd = os.pipe()
        reader = os.fdopen(r_fd, "rb", buffering=0)
        writer = os.fdopen(w_fd, "wb", buffering=0)
        return FrameStream(reader, None), FrameStream(None, writer)

    def test_roundtrip_preserves_payload(self):
        recv, send = self._pair()
        payload = {
            "kind": "request",
            "id": 7,
            "images": np.arange(12.0).reshape(3, 4),
        }
        send.send(payload)
        got = recv.recv()
        assert got["kind"] == "request" and got["id"] == 7
        np.testing.assert_array_equal(got["images"], payload["images"])
        send.close()
        recv.close()

    def test_many_frames_in_order(self):
        recv, send = self._pair()
        for i in range(50):
            send.send({"id": i})
        assert [recv.recv()["id"] for _ in range(50)] == list(range(50))
        send.close()
        recv.close()

    def test_clean_eof_reads_none(self):
        recv, send = self._pair()
        send.send({"kind": "ping"})
        send.close()
        assert recv.recv() == {"kind": "ping"}
        assert recv.recv() is None  # EOF on a frame boundary
        recv.close()

    def test_truncated_frame_is_loud(self):
        r_fd, w_fd = os.pipe()
        reader = os.fdopen(r_fd, "rb", buffering=0)
        writer = os.fdopen(w_fd, "wb", buffering=0)
        # A header promising 100 bytes followed by only 3.
        import struct

        writer.write(struct.pack("!I", 100) + b"abc")
        writer.close()
        with pytest.raises(RpcConnectionError, match="truncated"):
            FrameStream(reader, None).recv()
        reader.close()

    def test_corrupt_length_header_is_loud(self):
        import struct

        blob = struct.pack("!I", MAX_FRAME_BYTES + 1)
        stream = FrameStream(io.BytesIO(blob + b"x" * 8), None)
        with pytest.raises(RpcConnectionError, match="corrupt"):
            stream.recv()

    def test_non_dict_payload_rejected(self):
        import struct

        body = pickle.dumps([1, 2, 3])
        stream = FrameStream(
            io.BytesIO(struct.pack("!I", len(body)) + body), None
        )
        with pytest.raises(RpcConnectionError, match="dict"):
            stream.recv()

    def test_send_to_dead_reader_raises_connection_error(self):
        recv, send = self._pair()
        recv.close()
        with pytest.raises(RpcConnectionError):
            for _ in range(10_000):  # fill the pipe buffer until EPIPE
                send.send({"pad": b"x" * 4096})
        send.close()


# ---------------------------------------------------------------------------
# Error fidelity across the boundary (satellite: reason/cause preservation)
# ---------------------------------------------------------------------------


class TestErrorFidelity:
    def test_overload_reason_survives_encode_decode(self):
        err = ServiceOverloadError("queue is full", reason="deadline")
        back = decode_error(encode_error(err))
        assert isinstance(back, ServiceOverloadError)
        assert back.reason == "deadline"
        assert "queue is full" in str(back)

    def test_overload_reason_survives_pickling(self):
        err = ServiceOverloadError("shed", reason="deadline")
        back = pickle.loads(pickle.dumps(err))
        assert back.reason == "deadline"

    def test_fleet_error_reason_survives_pickling(self):
        err = FleetError("gone", reason="no_workers")
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, FleetError) and back.reason == "no_workers"

    def test_cause_chain_rebuilt_as_remote_worker_errors(self):
        try:
            try:
                raise ValueError("root cause")
            except ValueError as root:
                raise InferenceError("batch failed") from root
        except InferenceError as err:
            payload = encode_error(err)
        back = decode_error(payload)
        assert isinstance(back, InferenceError)
        assert isinstance(back.__cause__, RemoteWorkerError)
        assert back.__cause__.remote_type == "ValueError"
        assert "root cause" in str(back.__cause__)

    def test_unknown_type_decodes_to_fallback(self):
        payload = encode_error(KeyError("weird"))
        back = decode_error(payload)
        assert isinstance(back, InferenceError)
        assert "KeyError" in str(back)

    def test_validation_errors_keep_their_types(self):
        back = decode_error(encode_error(ShapeError("bad image")))
        assert isinstance(back, ShapeError)
        back = decode_error(encode_error(ConfigurationError("bad option")))
        assert isinstance(back, ConfigurationError)

    def test_remote_worker_error_renders_remote_type(self):
        err = RemoteWorkerError("boom", remote_type="RuntimeError")
        assert str(err) == "[RuntimeError] boom"
        back = pickle.loads(pickle.dumps(err))
        assert back.remote_type == "RuntimeError"

    def test_encode_error_bounds_cycle(self):
        a = InferenceError("a")
        b = InferenceError("b")
        a.__cause__ = b
        b.__cause__ = a
        payload = encode_error(a)
        assert len(payload["chain"]) == 1  # cycle cut, not recursed


# ---------------------------------------------------------------------------
# FleetConfig validation
# ---------------------------------------------------------------------------


class TestFleetConfig:
    def test_rejects_in_process_fault_plan_on_service(self):
        plan = FaultPlan(WorkerKill(at_batch=0))
        with pytest.raises(ConfigurationError, match="process boundary"):
            FleetConfig(service=ServiceConfig(fault_plan=plan))

    def test_rejects_plan_without_before_dispatch(self):
        with pytest.raises(ConfigurationError, match="before_dispatch"):
            FleetConfig(fault_plan=object())

    def test_default_worker_service(self):
        config = FleetConfig()
        assert config.worker_service.backend == "bit-exact-packed"

    def test_worker_window_derivation(self):
        # None derives 2x the worker service's max_batch_size.
        derived = FleetConfig(service=ServiceConfig(max_batch_size=16))
        assert derived.worker_window == 32
        assert FleetConfig(max_worker_inflight=7).worker_window == 7
        with pytest.raises(ConfigurationError):
            FleetConfig(max_worker_inflight=0)

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(num_workers=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(heartbeat_misses=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(hedge_after_ms=0.0)
        with pytest.raises(ConfigurationError):
            FleetConfig(max_inflight=0)


# ---------------------------------------------------------------------------
# Live fleets
# ---------------------------------------------------------------------------


class TestFleetServing:
    def test_bit_exact_across_workers(self, artifact, images, reference):
        with FleetRouter(artifact, _fleet_config()) as router:
            futures = [router.submit(images[i % 6]) for i in range(12)]
            responses = [f.result(timeout=120) for f in futures]
        for i, response in enumerate(responses):
            np.testing.assert_array_equal(
                response.scores[0], reference[i % 6]
            )
        snap = router.metrics.snapshot()
        assert snap["completed"] == 12
        assert snap["worker_deaths"] == 0

    def test_session_serve_fleet(self, artifact, images, reference):
        with Session.from_artifact(artifact) as session:
            with session.serve_fleet(_fleet_config()) as router:
                response = router.infer(images[0], timeout=120)
        np.testing.assert_array_equal(response.scores[0], reference[0])

    def test_session_serve_fleet_requires_artifact(self):
        with Session.from_network(tiny_cnn(), stream_length=128, seed=7) as s:
            with pytest.raises(ConfigurationError, match="artifact"):
                s.serve_fleet()

    def test_options_cross_the_boundary(self, artifact, images, reference):
        with FleetRouter(artifact, _fleet_config()) as router:
            response = router.infer(
                images[0],
                PredictOptions(checkpoints=(32, 128), early_exit=False),
                timeout=120,
            )
        # Full-stream evaluation at the final checkpoint: bit-identical.
        np.testing.assert_array_equal(response.scores[0], reference[0])

    def test_worker_side_validation_error_is_typed(self, artifact):
        # 2-D input fails the worker service's fail-fast validation; the
        # ShapeError crosses the pipe as itself, not a generic wrapper.
        with FleetRouter(artifact, _fleet_config()) as router:
            future = router.submit(np.zeros((5, 5)))
            with pytest.raises(ShapeError):
                future.result(timeout=120)

    def test_snapshot_and_fleet_exposition(self, artifact, images):
        from repro.obs import prometheus_text, validate_exposition

        with FleetRouter(artifact, _fleet_config()) as router:
            # Submitted together so the least-loaded dispatch feeds both.
            futures = [router.submit(images[i % 6]) for i in range(8)]
            [future.result(timeout=120) for future in futures]
            snap = router.snapshot()
        assert set(snap) == {"fleet", "workers"}
        assert snap["fleet"]["workers_ready"] == 2
        assert set(snap["workers"]) == {0, 1}
        assert all(w is not None for w in snap["workers"].values())
        text = prometheus_text(snap)
        families = validate_exposition(text)
        assert "repro_fleet_restarts_total" in families
        # Each worker's own service families, under its worker label.
        for slot in ("0", "1"):
            for sample in (
                f'repro_requests_total{{worker="{slot}"}} ',
                f'repro_kernel_calls_total{{worker="{slot}",',
                f'repro_queue_time_ms_count{{worker="{slot}"}} ',
            ):
                assert any(
                    line.startswith(sample) for line in text.splitlines()
                ), sample

    def test_router_admission_sheds_typed(self, artifact, images):
        config = _fleet_config(max_inflight=2)
        with FleetRouter(artifact, config) as router:
            futures, shed = [], 0
            for i in range(10):
                try:
                    futures.append(router.submit(images[i % 6]))
                except ServiceOverloadError as exc:
                    assert exc.reason == "queue_full"
                    shed += 1
            for future in futures:
                future.result(timeout=120)
        assert shed > 0
        assert router.metrics.snapshot()["shed"] == shed

    def test_submit_after_close_raises_draining(self, artifact, images):
        router = FleetRouter(artifact, _fleet_config())
        router.close()
        with pytest.raises(FleetError) as info:
            router.submit(images[0])
        assert info.value.reason == "draining"

    def test_close_drains_in_flight(self, artifact, images, reference):
        router = FleetRouter(artifact, _fleet_config())
        futures = [router.submit(images[i % 6]) for i in range(8)]
        router.close()  # graceful drain: every future must already be done
        for i, future in enumerate(futures):
            response = future.result(timeout=1)
            np.testing.assert_array_equal(response.scores[0], reference[i % 6])


class TestSupervision:
    def test_killed_worker_restarts_and_retries_bit_exact(
        self, artifact, images, reference
    ):
        """Satellite: restart bit-exactness at process granularity.

        The worker is SIGKILLed as request #2 is dispatched to it -- a
        mid-batch death.  The router restarts the slot from the artifact
        and re-dispatches; the retried answer must be bit-identical to
        the fault-free single-process run.
        """
        plan = FaultPlan(WorkerKill(at_batch=2, times=1), seed=0)
        config = _fleet_config(fault_plan=plan, max_worker_restarts=2)
        with FleetRouter(artifact, config) as router:
            responses = [
                router.infer(images[i % 6], timeout=120) for i in range(6)
            ]
        for i, response in enumerate(responses):
            np.testing.assert_array_equal(
                response.scores[0], reference[i % 6]
            )
        snap = router.metrics.snapshot()
        assert plan.fired.get("worker_kill") == 1
        assert snap["worker_deaths"] == 1
        assert snap["restarts"] == 1
        assert snap["retries"] >= 1
        assert snap["completed"] == 6

    def test_start_does_not_kill_a_healthy_worker(self, artifact):
        # A heartbeat budget shorter than one worker start: worker 0 sat
        # unpinged while worker 1 started, which must not read as a hang.
        config = _fleet_config(heartbeat_interval_ms=50.0, heartbeat_misses=4)
        with FleetRouter(artifact, config) as router:
            time.sleep(1.0)  # five budgets
            snap = router.metrics.snapshot()
        assert snap["worker_deaths"] == 0
        assert snap["restarts"] == 0

    def test_hung_worker_is_shot_and_restarted(
        self, artifact, images, reference
    ):
        plan = FaultPlan(WorkerHang(at_batch=1, times=1, hang_s=60.0), seed=0)
        config = _fleet_config(fault_plan=plan, max_worker_restarts=2)
        with FleetRouter(artifact, config) as router:
            responses = [
                router.infer(images[i % 6], timeout=120) for i in range(4)
            ]
        for i, response in enumerate(responses):
            np.testing.assert_array_equal(
                response.scores[0], reference[i % 6]
            )
        snap = router.metrics.snapshot()
        assert plan.fired.get("worker_hang") == 1
        assert snap["worker_deaths"] == 1
        assert snap["restarts"] == 1

    def test_retry_budget_exhaustion_fails_typed(self, artifact, images):
        # Every dispatch kills its worker; with retries smaller than the
        # kill count the request must fail with a typed FleetError, not
        # hang forever.
        plan = FaultPlan(WorkerKill(rate=1.0, times=None), seed=0)
        config = _fleet_config(
            fault_plan=plan,
            max_request_retries=1,
            max_worker_restarts=50,
        )
        with FleetRouter(artifact, config) as router:
            future = router.submit(images[0])
            with pytest.raises(FleetError) as info:
                future.result(timeout=120)
        assert info.value.reason == "worker_lost"

    def test_no_workers_left_fails_fast(self, artifact, images):
        plan = FaultPlan(WorkerKill(rate=1.0, times=None), seed=0)
        config = _fleet_config(
            num_workers=1,
            fault_plan=plan,
            max_worker_restarts=0,
            max_request_retries=5,
        )
        with FleetRouter(artifact, config) as router:
            future = router.submit(images[0])
            with pytest.raises(FleetError):
                future.result(timeout=120)
            # The fleet is now permanently dead: submits fail fast.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    router.submit(images[0])
                except FleetError as exc:
                    assert exc.reason == "no_workers"
                    break
                time.sleep(0.05)
            else:  # pragma: no cover
                pytest.fail("router kept admitting with no workers left")

    def test_hedging_duplicates_slow_requests(
        self, artifact, images, reference
    ):
        # Worker slot 0 is made a straggler (every request +1.5 s); with
        # a 150 ms hedge threshold its requests re-dispatch onto the
        # healthy twin, which answers first -- bit-identically.
        plan = FaultPlan(SlowWorker(worker=0, at_batch=0, delay_s=1.5), seed=0)
        config = _fleet_config(
            fault_plan=plan,
            hedge_after_ms=150.0,
        )
        with FleetRouter(artifact, config) as router:
            responses = [
                router.infer(images[i % 6], timeout=120) for i in range(6)
            ]
        for i, response in enumerate(responses):
            np.testing.assert_array_equal(
                response.scores[0], reference[i % 6]
            )
        snap = router.metrics.snapshot()
        assert plan.fired.get("slow_worker") == 1
        assert snap["hedges"] >= 1
        assert snap["hedge_wins"] >= 1
        assert snap["worker_deaths"] == 0  # slow, not hung: no restart

    def test_rolling_restart_drops_nothing(self, artifact, images, reference):
        config = _fleet_config()
        with FleetRouter(artifact, config) as router:
            stop = threading.Event()
            futures = []

            def pump():
                i = 0
                while not stop.is_set():
                    futures.append((i, router.submit(images[i % 6])))
                    i += 1
                    time.sleep(0.01)

            thread = threading.Thread(target=pump)
            thread.start()
            try:
                time.sleep(0.2)
                router.rolling_restart()
                time.sleep(0.2)
            finally:
                stop.set()
                thread.join()
            responses = [(i, f.result(timeout=120)) for i, f in futures]
        for i, response in responses:
            np.testing.assert_array_equal(
                response.scores[0], reference[i % 6]
            )
        snap = router.metrics.snapshot()
        assert snap["replacements"] == 2
        assert snap["worker_deaths"] == 0  # replacements are not deaths
        assert snap["restarts"] == 0  # ... and are not charged to budgets


# ---------------------------------------------------------------------------
# Chaos (acceptance criterion)
# ---------------------------------------------------------------------------


class TestFleetChaos:
    def test_500_requests_under_process_faults(
        self, artifact, images, reference
    ):
        n_requests = 500
        # Deterministic, slot-pinned injections (matched against each
        # slot's own dispatch counter), spaced so no two faults can land
        # on the same sick process: every fired kill/hang then costs
        # exactly one worker death and one budgeted restart, and the
        # router counters must match `fired` *exactly*.  (A global-counter
        # injection could hit a worker that is already hung -- the
        # dispatcher keeps feeding a hung-but-undetected worker -- and
        # two firings would collapse into one death.)
        plan = FaultPlan(
            WorkerKill(worker=0, at_batch=10, times=1),
            WorkerKill(worker=1, at_batch=30, times=1),
            WorkerHang(worker=0, at_batch=120, times=1, hang_s=60.0),
            SlowWorker(worker=1, at_batch=200, times=1, delay_s=0.2),
            seed=0,
        )
        config = _fleet_config(
            service=_service_config(max_batch_size=16),
            fault_plan=plan,
            max_worker_restarts=4,
            max_request_retries=4,
            drain_timeout_s=120.0,
        )
        answered, failed, shed = [], 0, 0
        with FleetRouter(artifact, config) as router:
            futures = []
            for i in range(n_requests):
                try:
                    futures.append((i, router.submit(images[i % 6])))
                except (ServiceOverloadError, FleetError):
                    shed += 1
                if i % 16 == 15:
                    time.sleep(0.001)  # pace the burst a little
            for i, future in futures:
                try:
                    answered.append((i, future.result(timeout=300)))
                except (InferenceError, FleetError, ServiceOverloadError):
                    failed += 1
            # The last future can resolve while a replacement worker is
            # still mid-spawn; give the fleet a moment to finish healing.
            deadline = time.monotonic() + 60
            snapshot = router.snapshot()
            while (
                snapshot["fleet"]["workers_ready"] < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.1)
                snapshot = router.snapshot()
        # Every submitted future resolved: a result or a typed error.
        assert len(answered) + failed + shed == n_requests
        assert len(answered) > 0
        # Non-degraded scores are bit-identical to the fault-free
        # single-process run (no degradation is configured, so that is
        # *every* answer) -- batch-invariance across processes, restarts
        # and retries.
        for i, response in answered:
            assert not response.degraded
            np.testing.assert_array_equal(
                response.scores[0], reference[i % 6]
            )
        # Router metrics match the plan's fired accounting exactly.
        fleet = snapshot["fleet"]
        kills = plan.fired.get("worker_kill", 0)
        hangs = plan.fired.get("worker_hang", 0)
        assert kills == 2 and hangs == 1
        assert plan.fired.get("slow_worker", 0) == 1
        assert fleet["worker_deaths"] == kills + hangs
        assert fleet["restarts"] == kills + hangs
        # Each death strands at least the request whose dispatch fired
        # the injector; every stranded-and-retried request is counted.
        assert fleet["retries"] >= kills
        assert fleet["completed"] == len(answered)
        assert fleet["shed"] == shed
        # Hedging is disabled in this plan: exactly zero, not "about zero".
        assert fleet["hedges"] == 0 and fleet["hedge_wins"] == 0
        # Every request lands in exactly one outcome bucket.
        assert (
            fleet["completed"]
            + fleet["failed"]
            + fleet["router_errors"]
            + fleet["shed"]
            == n_requests
        )
        assert fleet["submitted"] == n_requests - shed
        # The fleet healed: both workers are back up at the end.
        assert fleet["workers_ready"] == 2
