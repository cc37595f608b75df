"""Deterministic, seedable fault injection for the serving layer.

Chaos testing the service should be an ordinary pytest test, not a shell
script that kills processes and hopes: a :class:`FaultPlan` is a bundle
of fault injectors wired into :class:`~repro.serve.ScInferenceService`
via :attr:`repro.config.ServiceConfig.fault_plan`.  Before every
execution attempt of a merged-batch bucket, the worker thread calls
:meth:`FaultPlan.before_batch`; the plan decides -- deterministically,
from explicit batch indices or from a seeded RNG -- whether a fault
fires for that attempt:

* :class:`ReplicaCrash` raises :class:`InjectedCrashError`, which the
  service treats like any unexpected replica exception: restart the
  replica (exponential backoff, bounded by the restart budget) and retry
  the batch.
* :class:`SlowReplica` sleeps inside the worker, modelling a straggling
  replica; requests behind it observe queueing delay (and, with bounded
  admission configured, later submits are shed).
* :class:`PoisonedBatch` raises :class:`~repro.errors.InferenceError`
  directly -- a *request-scoped* failure the service must route to the
  affected futures without restarting the replica or killing the worker
  thread.

Batch indices tick per *execution attempt* (a retried bucket advances
the counter), so a ``ReplicaCrash(at_batch=k, times=1)`` fires exactly
once and the retry after the replica restart succeeds -- the canonical
transient-fault scenario.  Faults with ``worker`` set match that worker
thread's private attempt counter (deterministic regardless of thread
interleaving); faults with ``worker=None`` match the plan-wide counter.
:attr:`FaultPlan.fired` records what actually fired, so chaos tests can
assert service metrics against the injected plan.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, InferenceError

__all__ = [
    "FaultPlan",
    "ReplicaCrash",
    "SlowReplica",
    "PoisonedBatch",
    "WorkerKill",
    "WorkerHang",
    "SlowWorker",
    "InjectedCrashError",
]


class InjectedCrashError(RuntimeError):
    """The exception an injected replica crash raises.

    Deliberately *not* a :class:`~repro.errors.ReproError`: a crashing
    replica surfaces as an arbitrary exception, which is exactly what the
    service's supervision path (restart + retry) must handle.
    """


@dataclass
class _Fault:
    """Shared matching state of one injector.

    Attributes:
        at_batch: fire when the matched attempt counter equals this value
            (``None`` = never match by index).
        worker: restrict to one service worker thread (``None`` matches
            any worker, against the plan-wide counter).
        rate: probability of firing per attempt (evaluated against the
            plan's seeded RNG when ``at_batch`` does not match).
        times: maximum number of firings (``None`` = unlimited).
    """

    at_batch: int | None = None
    worker: int | None = None
    rate: float = 0.0
    times: int | None = 1
    _fired: int = field(default=0, repr=False)

    #: Key under which firings are counted in :attr:`FaultPlan.fired`.
    kind = "fault"

    def __post_init__(self) -> None:
        if self.at_batch is not None and self.at_batch < 0:
            raise ConfigurationError(
                f"at_batch must be >= 0, got {self.at_batch}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"rate must lie in [0, 1], got {self.rate}"
            )
        if self.times is not None and self.times < 1:
            raise ConfigurationError(f"times must be >= 1, got {self.times}")
        if self.at_batch is None and self.rate == 0.0:
            raise ConfigurationError(
                f"{type(self).__name__} needs at_batch or a nonzero rate"
            )

    def _matches(self, worker: int, worker_seq: int, global_seq: int, rng) -> bool:
        if self.times is not None and self._fired >= self.times:
            return False
        if self.worker is not None and self.worker != worker:
            return False
        seq = worker_seq if self.worker is not None else global_seq
        if self.at_batch is not None:
            return seq == self.at_batch
        return rng.random() < self.rate

    def apply(self, replica) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass
class ReplicaCrash(_Fault):
    """The replica raises an unexpected exception mid-batch."""

    kind = "replica_crash"

    def apply(self, replica) -> None:
        raise InjectedCrashError("injected replica crash")


@dataclass
class SlowReplica(_Fault):
    """The replica stalls for ``delay_s`` before executing the batch."""

    delay_s: float = 0.25
    kind = "slow_replica"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delay_s < 0:
            raise ConfigurationError(
                f"delay_s must be >= 0, got {self.delay_s}"
            )

    def apply(self, replica) -> None:
        time.sleep(self.delay_s)


@dataclass
class PoisonedBatch(_Fault):
    """The batch fails with a request-scoped typed error (no restart)."""

    kind = "poisoned_batch"

    def apply(self, replica) -> None:
        raise InferenceError("injected poisoned batch")


@dataclass
class WorkerKill(_Fault):
    """SIGKILL a fleet worker *process* as a request is dispatched to it.

    The process-level analogue of :class:`ReplicaCrash`, consumed by
    :meth:`FaultPlan.before_dispatch` on the thread dispatching the
    request (under the router lock; a SIGKILL does not block): the
    targeted worker dies instantly (no drain, no goodbye frame), the
    router's pipe-EOF death path fires once the lock is free, the
    in-flight requests -- the one being dispatched included -- are
    re-dispatched to healthy workers, and the slot is restarted from the
    artifact within its budget.
    """

    kind = "worker_kill"

    def apply(self, handle) -> None:
        handle.kill()


@dataclass
class WorkerHang(_Fault):
    """Make a fleet worker live-but-unresponsive for ``hang_s`` seconds.

    The worker's frame-reader loop sleeps, so heartbeat pings go
    unanswered while the process stays alive -- the pathology SIGKILL
    escalation exists for.  After ``heartbeat_misses`` silent intervals
    the router kills and restarts it; requests it held are retried.
    Defaults to an hour: effectively "until the router shoots it".
    """

    hang_s: float = 3600.0
    kind = "worker_hang"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.hang_s <= 0:
            raise ConfigurationError(
                f"hang_s must be > 0, got {self.hang_s}"
            )

    def apply(self, handle) -> None:
        handle.inject_hang(self.hang_s)


@dataclass
class SlowWorker(_Fault):
    """Delay a fleet worker's request handling by ``delay_s`` seconds.

    The process-level :class:`SlowReplica`: the worker keeps answering
    heartbeats (it is slow, not hung -- no restart fires) but requests
    dispatched to it from this point on are answered ``delay_s`` late,
    the straggler profile tail-latency hedging exists for.
    """

    delay_s: float = 0.25
    kind = "slow_worker"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delay_s < 0:
            raise ConfigurationError(
                f"delay_s must be >= 0, got {self.delay_s}"
            )

    def apply(self, handle) -> None:
        handle.inject_slow(self.delay_s)


class FaultPlan:
    """A deterministic bundle of fault injectors for one service run.

    Args:
        *faults: the injectors (:class:`ReplicaCrash`,
            :class:`SlowReplica`, :class:`PoisonedBatch` in the service;
            :class:`WorkerKill`, :class:`WorkerHang`, :class:`SlowWorker`
            in the fleet router).
        seed: seed of the RNG behind rate-based injectors.  Matching is
            serialised under the plan lock, so a given seed and arrival
            order reproduce the same firing sequence.

    The plan is single-use state: it counts execution attempts, so reuse
    a fresh plan per service run (or call :meth:`reset`).
    """

    def __init__(self, *faults: _Fault, seed: int = 0) -> None:
        import random

        for fault in faults:
            if not isinstance(fault, _Fault):
                raise ConfigurationError(
                    f"not a fault injector: {fault!r}"
                )
        self.faults = tuple(faults)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._global_seq = 0
        self._worker_seq: dict[int, int] = {}
        #: Firing counts by fault kind (e.g. ``{"replica_crash": 1}``).
        self.fired: dict[str, int] = {}

    def reset(self) -> None:
        """Rewind the attempt counters and firing history."""
        import random

        with self._lock:
            self._rng = random.Random(self.seed)
            self._global_seq = 0
            self._worker_seq.clear()
            self.fired.clear()
            for fault in self.faults:
                fault._fired = 0

    def before_batch(self, worker: int, replica=None) -> None:
        """One execution attempt is starting on ``worker``.

        Called by the service worker thread before each bucket execution
        attempt.  Sleeps (slow replica) or raises (crash / poison)
        according to the plan; at most one *raising* fault fires per
        attempt, but a sleep may precede it.
        """
        with self._lock:
            worker_seq = self._worker_seq.get(worker, 0)
            matched = [
                fault
                for fault in self.faults
                if fault._matches(worker, worker_seq, self._global_seq, self._rng)
            ]
            for fault in matched:
                fault._fired += 1
                self.fired[fault.kind] = self.fired.get(fault.kind, 0) + 1
            self._worker_seq[worker] = worker_seq + 1
            self._global_seq += 1
        # Apply outside the lock: sleeps must not serialise other workers,
        # and raising faults must not leave the lock held.
        raising = None
        for fault in matched:
            if isinstance(fault, (ReplicaCrash, PoisonedBatch)):
                raising = fault
            else:
                fault.apply(replica)
        if raising is not None:
            raising.apply(replica)

    def before_dispatch(self, worker: int, handle=None) -> None:
        """One request is being dispatched to fleet worker slot ``worker``.

        Called by :class:`~repro.serve.fleet.FleetRouter` on the
        dispatching thread (whichever one queued the request or freed a
        window slot), under the router lock, just before the request
        frame is queued -- so it must not block.  Process-level
        injectors (:class:`WorkerKill`, :class:`WorkerHang`,
        :class:`SlowWorker`) act on the worker *handle* without blocking:
        a SIGKILL, or a hang / slow control frame queued ahead of the
        request.  Dispatch attempts tick the same per-worker / plan-wide
        counters as :meth:`before_batch` (a plan is used against one
        layer at a time: :class:`~repro.config.FleetConfig` rejects
        in-process plans, so the counter spaces never mix in practice).
        """
        with self._lock:
            worker_seq = self._worker_seq.get(worker, 0)
            matched = [
                fault
                for fault in self.faults
                if fault._matches(worker, worker_seq, self._global_seq, self._rng)
            ]
            for fault in matched:
                fault._fired += 1
                self.fired[fault.kind] = self.fired.get(fault.kind, 0) + 1
            self._worker_seq[worker] = worker_seq + 1
            self._global_seq += 1
        # Apply outside the plan lock, which guards only the counters.
        for fault in matched:
            fault.apply(handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ", ".join(f.kind for f in self.faults) or "none"
        return f"FaultPlan(faults=[{kinds}], seed={self.seed})"
