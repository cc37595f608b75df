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
  without bound, and unmeetable deadlines are shed at submit;
* **progressive degradation** -- overload answers from a truncated
  checkpoint schedule, flagged on the response and never cached;
* **chaos** -- a 500-request run under injected crash + straggler: every
  submitted future resolves (result or typed error),
  non-degraded scores are bit-identical to a fault-free evaluation, and
  the metrics account for every injected event.
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
    """Fault-free bit-exact scores: full stream and every checkpoint."""
    backend = create_backend("bit-exact-packed", mapper)
    checkpoints = (16, 32, 64, 128)
    return {
        "full": backend.forward(images),
        "checkpoints": checkpoints,
        "partial": backend.forward_partial(images, checkpoints),
    }


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
            np.testing.assert_array_equal(response.scores, reference["full"])
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
            np.testing.assert_array_equal(response.scores, reference["full"])
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

    def test_unmeetable_deadline_shed_at_submit(self, mapper, images):
        config = _config(shed_unmeetable_deadlines=True)
        with ScInferenceService(mapper, config) as service:
            # Prime the streaming-rate estimate; nothing shed before it.
            service.infer(images, timeout=30)
            with pytest.raises(ServiceOverloadError) as excinfo:
                service.submit(images[:1], PredictOptions(deadline_ms=1e-6))
            snapshot = service.metrics.snapshot()
        assert excinfo.value.reason == "deadline"
        assert snapshot["faults"]["shed"]["deadline"] == 1

    def test_deadline_shedding_off_by_default(self, mapper, images):
        # Back-compat: without the opt-in, an expired deadline answers
        # from the first checkpoint instead of being rejected.
        with ScInferenceService(mapper, _config()) as service:
            service.infer(images, timeout=30)
            response = service.infer(
                images[:1], PredictOptions(deadline_ms=1e-6), timeout=30
            )
        assert response.exit_checkpoints[0] < mapper.stream_length


class TestProgressiveDegradation:
    def test_exit_cap(self):
        from repro.serve.progressive import exit_cap

        assert exit_cap((16, 32, 64, 128), 64) == 2
        assert exit_cap((16, 32, 64, 128), 128) == 3
        # Every point above the cap: the first checkpoint stays the cap
        # (an early answer is the point of degrading).
        assert exit_cap((16, 32, 64, 128), 8) == 0

    def test_overload_truncates_schedule_and_skips_cache(
        self, mapper, images, reference
    ):
        # degrade_queue_depth=1: degraded whenever anything is in flight.
        config = _config(
            cache_capacity=64,
            degrade_queue_depth=1,
            degraded_max_fraction=0.5,
        )
        with ScInferenceService(mapper, config) as service:
            response = service.infer(images, timeout=30)
            assert response.degraded
            assert (response.exit_checkpoints <= 64).all()
            # Degraded answers are exact prefix evaluations...
            point = int(response.exit_checkpoints[0])
            plane = reference["partial"][
                reference["checkpoints"].index(point)
            ]
            np.testing.assert_array_equal(response.scores, plane)
            # ...but must never enter the full-precision cache.
            assert service.cache.stats()["size"] == 0
            snapshot = service.metrics.snapshot()
        assert snapshot["faults"]["degraded_requests"] == 1

    def test_no_degradation_when_not_overloaded(self, mapper, images):
        config = _config(degrade_queue_depth=50, cache_capacity=64)
        with ScInferenceService(mapper, config) as service:
            response = service.infer(images, timeout=30)
            assert not response.degraded
            assert service.cache.stats()["size"] == images.shape[0]


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
            degrade_queue_depth=32,
            degraded_max_fraction=0.5,
            restart_backoff_ms=1.0,
        )
        answered, failed, shed = [], 0, 0
        with ScInferenceService(mapper, config) as service:
            futures = []
            for i in range(n_requests):
                try:
                    futures.append((i, service.submit(images[i % 6])))
                except ServiceOverloadError:
                    shed += 1
                if i % 16 == 15:
                    # Pace the burst just enough that the queue drains
                    # between spikes: both admission (sheds) and the
                    # degradation controller get exercised.
                    time.sleep(0.001)
            for i, future in futures:
                try:
                    answered.append((i, future.result(timeout=120)))
                except InferenceError:
                    failed += 1
            snapshot = service.metrics.snapshot()
        # Every submitted future resolved: a result or a typed error.
        assert len(answered) + failed + shed == n_requests
        assert len(answered) > 0
        # Non-degraded answers are bit-identical to the fault-free run;
        # degraded answers are exact prefixes at their (earlier) exit.
        checkpoints = reference["checkpoints"]
        for i, response in answered:
            expected = reference["full"][i % 6]
            if response.degraded:
                point = int(response.exit_checkpoints[0])
                expected = reference["partial"][
                    checkpoints.index(point), i % 6
                ]
            np.testing.assert_array_equal(response.scores[0], expected)
        # The metrics account for everything the plan injected.
        counters = snapshot["faults"]
        assert plan.fired.get("replica_crash") == 1
        assert counters["restarts"] >= 1
        assert counters["retries"] >= 1
        assert shed > 0 and counters["shed"]["queue_full"] == shed
        assert counters["degraded_requests"] > 0
        assert counters["degraded_requests"] == sum(
            1 for _, r in answered if r.degraded
        )
        assert snapshot["requests"] == len(answered)
