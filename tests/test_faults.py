"""Fault tolerance: injection harness, supervision, admission, chaos.

Exercises the robustness layer of :mod:`repro.serve` end to end with the
deterministic fault injectors of :mod:`repro.serve.faults`:

* **worker isolation** -- a poisoned batch fails *its* futures with a
  typed :class:`~repro.errors.InferenceError` and never kills the worker
  thread (the regression for the old blanket ``except`` in the worker
  loop);
* **replica supervision** -- a crashing replica is rebuilt with
  exponential backoff inside a restart budget, and the batch retried;
  the retried answer is bit-identical to a fault-free run;
* **bounded admission** -- ``max_queue_depth`` sheds with
  :class:`~repro.errors.ServiceOverloadError` instead of queueing
  without bound, and a request whose deadline runs out while it is
  queued is shed with the same error before any compute;
* **chaos** -- a 500-request run under injected crash + straggler, some
  requests with tight deadlines: every submitted future resolves
  (result or typed error), every answer is bit-identical to a fault-free
  evaluation, and the metrics account for every injected event.
"""

import time
from concurrent.futures import TimeoutError as FuturesTimeoutError

import numpy as np
import pytest
from nets import tiny_cnn, wait_until_held

from repro.backends import create_backend
from repro.config import PredictOptions, ServiceConfig
from repro.errors import (
    ConfigurationError,
    InferenceError,
    ServiceOverloadError,
)
from repro.nn.sc_layers import ScNetworkMapper
from repro.serve import (
    FaultPlan,
    InjectedCrashError,
    PoisonedBatch,
    ReplicaCrash,
    ScInferenceService,
    SlowReplica,
)


@pytest.fixture(scope="module")
def mapper():
    return ScNetworkMapper(tiny_cnn(), stream_length=128, seed=7)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((6, 1, 28, 28))


@pytest.fixture(scope="module")
def reference(mapper, images):
    """Fault-free bit-exact full-stream scores."""
    return create_backend("bit-exact-packed", mapper).forward(images)


def _config(**overrides) -> ServiceConfig:
    defaults = dict(
        backend="bit-exact-packed",
        max_batch_size=8,
        num_workers=1,
        cache_capacity=0,
        early_exit=False,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestFaultPlanUnit:
    def test_rejects_invalid_triggers(self):
        with pytest.raises(ConfigurationError):
            ReplicaCrash()  # neither at_batch nor rate
        with pytest.raises(ConfigurationError):
            ReplicaCrash(at_batch=-1)
        with pytest.raises(ConfigurationError):
            ReplicaCrash(rate=1.5)
        with pytest.raises(ConfigurationError):
            ReplicaCrash(at_batch=0, times=0)
        with pytest.raises(ConfigurationError):
            SlowReplica(at_batch=0, delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(object())

    def test_at_batch_fires_exactly_once(self):
        plan = FaultPlan(ReplicaCrash(at_batch=1))
        plan.before_batch(worker=0)  # attempt 0: no fault
        with pytest.raises(InjectedCrashError):
            plan.before_batch(worker=0)  # attempt 1: fires
        plan.before_batch(worker=0)  # attempt 2: spent
        assert plan.fired == {"replica_crash": 1}

    def test_worker_targeted_fault_uses_worker_counter(self):
        plan = FaultPlan(ReplicaCrash(at_batch=0, worker=1))
        plan.before_batch(worker=0)  # worker 0 never matches
        plan.before_batch(worker=0)
        with pytest.raises(InjectedCrashError):
            plan.before_batch(worker=1)  # worker 1's attempt 0
        assert plan.fired == {"replica_crash": 1}

    def test_rate_faults_are_deterministic_per_seed(self):
        def firing_pattern(seed):
            plan = FaultPlan(
                PoisonedBatch(rate=0.5, times=None), seed=seed
            )
            pattern = []
            for _ in range(32):
                try:
                    plan.before_batch(worker=0)
                    pattern.append(False)
                except InferenceError:
                    pattern.append(True)
            return pattern

        assert firing_pattern(3) == firing_pattern(3)
        assert any(firing_pattern(3))
        assert not all(firing_pattern(3))

    def test_reset_rewinds_counters(self):
        plan = FaultPlan(ReplicaCrash(at_batch=0))
        with pytest.raises(InjectedCrashError):
            plan.before_batch(worker=0)
        plan.before_batch(worker=0)  # spent
        plan.reset()
        with pytest.raises(InjectedCrashError):
            plan.before_batch(worker=0)  # fires again after reset
        assert plan.fired == {"replica_crash": 1}

    def test_fault_plan_validated_by_service_config(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(fault_plan=object())
        ServiceConfig(fault_plan=FaultPlan(ReplicaCrash(at_batch=0)))


class TestWorkerIsolation:
    """The regression for the worker loop's old blanket ``except``."""

    def test_poisoned_batch_fails_futures_not_the_worker(
        self, mapper, images, reference
    ):
        plan = FaultPlan(PoisonedBatch(at_batch=0))
        config = _config(fault_plan=plan, max_batch_retries=0)
        with ScInferenceService(mapper, config) as service:
            poisoned = service.submit(images[:2])
            with pytest.raises(InferenceError):
                poisoned.result(timeout=30)
            # The worker thread survived and serves the next request
            # bit-identically to a fault-free evaluation.
            response = service.infer(images, timeout=30)
            np.testing.assert_array_equal(response.scores, reference)
            snapshot = service.metrics.snapshot()
        assert snapshot["faults"]["failed_requests"] == 1
        assert snapshot["faults"]["restarts"] == 0  # poison never restarts
        assert plan.fired == {"poisoned_batch": 1}

    def test_poison_is_request_scoped_never_retried(self, mapper, images):
        plan = FaultPlan(PoisonedBatch(at_batch=0))
        config = _config(fault_plan=plan, max_batch_retries=3)
        with ScInferenceService(mapper, config) as service:
            with pytest.raises(InferenceError):
                service.infer(images[:1], timeout=30)
            snapshot = service.metrics.snapshot()
        assert snapshot["faults"]["retries"] == 0


class TestReplicaSupervision:
    def test_crash_on_first_batch_restarts_and_retry_succeeds(
        self, mapper, images, reference
    ):
        plan = FaultPlan(ReplicaCrash(at_batch=0))
        config = _config(fault_plan=plan, restart_backoff_ms=1.0)
        with ScInferenceService(mapper, config) as service:
            response = service.infer(images, timeout=30)
            np.testing.assert_array_equal(response.scores, reference)
            snapshot = service.metrics.snapshot()
        assert snapshot["faults"]["restarts"] == 1
        assert snapshot["faults"]["retries"] == 1
        assert snapshot["faults"]["failed_requests"] == 0
        assert plan.fired == {"replica_crash": 1}

    def test_restart_budget_exhaustion_fails_typed(self, mapper, images):
        plan = FaultPlan(ReplicaCrash(rate=1.0, times=None))
        config = _config(
            fault_plan=plan,
            max_replica_restarts=2,
            max_batch_retries=5,
            restart_backoff_ms=1.0,
        )
        with ScInferenceService(mapper, config) as service:
            future = service.submit(images[:1])
            with pytest.raises(InferenceError) as excinfo:
                future.result(timeout=30)
            snapshot = service.metrics.snapshot()
        # The typed error chains the underlying crash for debuggability.
        assert isinstance(excinfo.value.__cause__, InjectedCrashError)
        assert snapshot["faults"]["restarts"] == 2
        assert snapshot["faults"]["failed_requests"] == 1


class TestBoundedAdmission:
    def test_queue_full_rejects_fast_with_typed_error(self, mapper, images):
        # One worker stalled by a straggler fault; depth-2 admission.
        plan = FaultPlan(SlowReplica(rate=1.0, times=None, delay_s=0.2))
        config = _config(fault_plan=plan, max_queue_depth=2)
        with ScInferenceService(mapper, config) as service:
            futures = []
            shed = 0
            for _ in range(6):
                try:
                    futures.append(service.submit(images[:1]))
                except ServiceOverloadError as exc:
                    assert exc.reason == "queue_full"
                    shed += 1
            assert shed == 4  # depth 2: exactly two admitted
            for future in futures:
                future.result(timeout=30)  # admitted requests all answer
            snapshot = service.metrics.snapshot()
        assert snapshot["faults"]["shed"]["queue_full"] == 4
        assert snapshot["requests"] == 2

    def test_cache_hits_bypass_admission(self, mapper, images):
        config = _config(cache_capacity=64, max_queue_depth=1)
        with ScInferenceService(mapper, config) as service:
            service.infer(images[:1], timeout=30)  # populate the cache
            # A full-hit request never occupies an admission slot.
            for _ in range(8):
                response = service.infer(images[:1], timeout=30)
                assert response.cached.all()

    def test_deadline_run_out_in_the_queue_is_shed(self, mapper, images):
        # A 50 ms budget queued behind a 0.5 s hold runs out before the
        # worker can take the request: shed unanswered, never computed.
        plan = FaultPlan(SlowReplica(at_batch=0, delay_s=0.5))
        config = _config(
            fault_plan=plan, max_queue_depth=2, trace_sample_rate=1.0
        )
        with ScInferenceService(mapper, config) as service:
            holder = service.submit(images[:1])
            wait_until_held(plan)
            hurried = service.submit(
                images[1:3], PredictOptions(deadline_ms=50.0)
            )
            with pytest.raises(ServiceOverloadError) as excinfo:
                hurried.result(timeout=30)
            holder.result(timeout=30)
            snapshot = service.metrics.snapshot()
            # The shed request's sampled trace was finished, too.
            assert service.tracer.stats()["finished"] == 2
            # The shed request gave its admission slot back: two fit.
            for future in [service.submit(images[i : i + 1]) for i in (3, 4)]:
                future.result(timeout=30)
        assert excinfo.value.reason == "deadline"
        assert snapshot["batches"] == 1  # the holder's alone
        assert snapshot["requests"] == 1
        assert snapshot["faults"]["shed"]["deadline"] == 1
        assert snapshot["faults"]["failed_requests"] == 0

    def test_shed_request_leaves_its_batch_to_the_rest(
        self, mapper, images, reference
    ):
        # An expired request and a plain one queue behind the hold and
        # reach the worker together: the first is shed, the second is
        # answered in full, and the batch holds the second's images only.
        plan = FaultPlan(SlowReplica(at_batch=0, delay_s=0.3))
        with ScInferenceService(mapper, _config(fault_plan=plan)) as service:
            holder = service.submit(images[:1])
            wait_until_held(plan)
            hurried = service.submit(
                images[1:3], PredictOptions(deadline_ms=1.0)
            )
            plain = service.submit(images[3:5])
            with pytest.raises(ServiceOverloadError) as excinfo:
                hurried.result(timeout=30)
            response = plain.result(timeout=30)
            holder.result(timeout=30)
        snapshot = service.metrics.snapshot()
        assert excinfo.value.reason == "deadline"
        np.testing.assert_array_equal(response.scores, reference[3:5])
        assert snapshot["batches"] == 2
        assert snapshot["max_batch_size"] == 2
        assert snapshot["requests"] == 2
        assert snapshot["faults"]["shed"] == {"deadline": 1, "total": 1}


class TestCancelOnTimeout:
    def test_infer_timeout_cancels_and_releases_slot(self, mapper, images):
        # First dispatch stalls in the worker; the second request times
        # out while still queued and must be dropped before dispatch.
        plan = FaultPlan(SlowReplica(at_batch=0, delay_s=0.5))
        config = _config(fault_plan=plan, max_queue_depth=2)
        with ScInferenceService(mapper, config) as service:
            stalled = service.submit(images[:1])
            time.sleep(0.1)  # let the stalled batch reach the worker
            with pytest.raises(FuturesTimeoutError):
                service.infer(images[1:2], timeout=0.05)
            # The abandoned request released its admission slot: with
            # depth 2 and one request still stalled, a new submit fits.
            follow_up = service.submit(images[2:3])
            stalled.result(timeout=30)
            follow_up.result(timeout=30)
            snapshot = service.metrics.snapshot()
        assert snapshot["faults"]["cancelled_requests"] == 1
        # The cancelled request was never computed nor counted served.
        assert snapshot["requests"] == 2

    def test_cancelled_request_is_not_counted_as_a_batch(self, mapper, images):
        # A 3-image request cancelled behind the held replica is dropped
        # before its batch is counted: one batch of one image, not two.
        plan = FaultPlan(SlowReplica(at_batch=0, delay_s=0.3))
        with ScInferenceService(mapper, _config(fault_plan=plan)) as service:
            holder = service.submit(images[:1])
            wait_until_held(plan)
            assert service.cancel(service.submit(images[1:4]))
            holder.result(timeout=30)
        snapshot = service.metrics.snapshot()
        assert snapshot["requests"] == 1
        assert snapshot["batches"] == 1
        assert snapshot["mean_batch_size"] == 1.0

    def test_cancelled_request_is_not_also_shed(self, mapper, images):
        # Cancelled while queued, a request whose deadline then runs out
        # is dropped as cancelled: it is counted once, never as a shed.
        plan = FaultPlan(SlowReplica(at_batch=0, delay_s=0.3))
        with ScInferenceService(mapper, _config(fault_plan=plan)) as service:
            holder = service.submit(images[:1])
            wait_until_held(plan)
            hurried = service.submit(
                images[1:2], PredictOptions(deadline_ms=1.0)
            )
            assert service.cancel(hurried)
            holder.result(timeout=30)
        snapshot = service.metrics.snapshot()
        assert hurried.cancelled()
        assert snapshot["faults"]["cancelled_requests"] == 1
        assert snapshot["faults"]["shed"] == {"total": 0}
        assert snapshot["batches"] == snapshot["requests"] == 1

    def test_cancel_on_resolved_future_returns_false(self, mapper, images):
        with ScInferenceService(mapper, _config()) as service:
            future = service.submit(images[:1])
            future.result(timeout=30)
            assert not service.cancel(future)
            snapshot = service.metrics.snapshot()
        assert snapshot["faults"]["cancelled_requests"] == 0


class TestChaos:
    def test_500_requests_under_injected_faults(
        self, mapper, images, reference
    ):
        n_requests = 500
        plan = FaultPlan(
            ReplicaCrash(worker=0, at_batch=3),
            SlowReplica(at_batch=10, delay_s=0.05),
            seed=0,
        )
        config = ServiceConfig(
            backend="bit-exact-packed",
            max_batch_size=8,
            num_workers=2,
            cache_capacity=0,
            early_exit=False,
            fault_plan=plan,
            max_queue_depth=64,
            restart_backoff_ms=1.0,
        )
        # Every fourth request carries a tight deadline: shed when it
        # runs out in the queue, answered in full when taken in time.
        hurried = PredictOptions(deadline_ms=2.0)
        answered, failed, shed, late = [], 0, 0, 0
        with ScInferenceService(mapper, config) as service:
            futures = []
            for i in range(n_requests):
                options = hurried if i % 4 == 3 else None
                try:
                    futures.append((i, service.submit(images[i % 6], options)))
                except ServiceOverloadError:
                    shed += 1
                if i % 16 == 15:
                    # Pace the burst just enough that the queue drains
                    # between spikes: admission sheds some requests, and
                    # deadlines run out behind the straggler.
                    time.sleep(0.001)
            for i, future in futures:
                try:
                    answered.append((i, future.result(timeout=120)))
                except InferenceError:
                    failed += 1
                except ServiceOverloadError as exc:
                    assert exc.reason == "deadline" and i % 4 == 3
                    late += 1
        snapshot = service.metrics.snapshot()
        # Every submitted future resolved: a result or a typed error.
        assert len(answered) + failed + late + shed == n_requests
        assert len(answered) > 0
        # Every answer, deadline or not, is bit-identical to the
        # fault-free run: nothing is cut short.
        for i, response in answered:
            np.testing.assert_array_equal(
                response.scores[0], reference[i % 6]
            )
        # The metrics account for everything the plan injected.
        counters = snapshot["faults"]
        assert plan.fired.get("replica_crash") == 1
        assert counters["restarts"] >= 1
        assert counters["retries"] >= 1
        assert shed > 0 and counters["shed"]["queue_full"] == shed
        assert late > 0 and counters["shed"]["deadline"] == late
        assert counters["failed_requests"] == failed
        assert snapshot["requests"] == len(answered)
