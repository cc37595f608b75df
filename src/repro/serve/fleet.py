"""Worker-fleet serving: supervised worker processes behind a router.

:class:`FleetRouter` lifts PR 6's in-process replica supervision to
process granularity.  It spawns ``FleetConfig.num_workers`` worker
*processes* (:mod:`repro.serve.fleet_worker`), each hosting its own
:class:`~repro.serve.ScInferenceService` rehydrated bit-identically from
a shared :class:`~repro.api.ScModel` artifact directory -- the PR 5
cross-process mechanism -- and talks to them over a length-prefixed
pickle-frame RPC (:mod:`repro.serve.rpc`) on their stdin/stdout pipes.

The router owns the process-level robustness contract:

* **Health.**  A heartbeat thread pings every live worker each
  ``heartbeat_interval_ms``; ``heartbeat_misses`` consecutive silent
  intervals declare the worker hung and SIGKILL it.  A killed or crashed
  worker's pipe EOF funnels every failure mode -- crash, hang, kill -9
  from outside -- into one death path.
* **Supervision.**  A dead slot is respawned after exponential backoff
  (``restart_backoff_ms * 2**k``, capped at 5 s) within a per-slot
  budget of ``max_worker_restarts`` -- the process-granularity analogue
  of the service's replica supervision.  Requests that were in flight on
  the dead worker are re-dispatched to healthy workers (up to
  ``max_request_retries`` each); requests whose deadline already passed
  are failed instead of retried.  Bit-exact rehydration makes the retry
  *score-preserving*: the restarted worker answers identically.
* **Hedging.**  With ``hedge_after_ms`` set, a request still unanswered
  after that long is speculatively duplicated onto a second healthy
  worker; the first response wins and the loser is dropped.  Because
  every worker is bit-identical, the hedge can never change an answer.
* **Admission.**  With ``max_inflight`` set, a submit beyond that many
  unresolved requests raises
  :class:`~repro.errors.ServiceOverloadError` in the caller, mirroring
  the in-process service's bounded admission.
* **Drain.**  :meth:`FleetRouter.close` stops admitting, waits for
  in-flight work (bounded by ``drain_timeout_s``), then asks each worker
  to drain and exit -- the SIGTERM-graceful path.
  :meth:`FleetRouter.rolling_restart` replaces workers one at a time
  with zero dropped requests, for artifact/config rollouts.

Failures crossing the RPC stay *typed*: worker-side
:class:`~repro.errors.InferenceError` /
:class:`~repro.errors.ServiceOverloadError` come back as themselves
(``reason`` and cause chain preserved -- see
:func:`repro.serve.rpc.decode_error`), router-side failures are
:class:`~repro.errors.FleetError` with a ``reason`` category.

Dispatch has no thread of its own: whichever thread queues a request or
frees a worker's window slot hands the queue on under the router lock,
and each worker's writer thread alone writes its pipe.  Deterministic
chaos testing hooks in at dispatch: a
``FleetConfig.fault_plan`` (:class:`repro.serve.faults.FaultPlan` with
:class:`~repro.serve.faults.WorkerKill` /
:class:`~repro.serve.faults.WorkerHang` /
:class:`~repro.serve.faults.SlowWorker` injectors) is consulted before
every request send, so the chaos suite can assert router metrics against
the plan's ``fired`` accounting exactly.
"""

from __future__ import annotations

import logging
import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from repro.config import FleetConfig, PredictOptions
from repro.errors import (
    ConfigurationError,
    FleetError,
    ServiceOverloadError,
)
from repro.serve.rpc import FrameStream, RpcConnectionError, decode_error

__all__ = ["FleetRouter", "FleetMetrics"]

logger = logging.getLogger("repro.serve.fleet")

_BACKOFF_CAP_S = 5.0

# Worker lifecycle states (strings for cheap snapshot rendering).
SPAWNING = "spawning"
READY = "ready"
DRAINING = "draining"
DEAD = "dead"


class FleetMetrics:
    """Router-level counters (thread-safe, monotonic within one run).

    The process-granularity mirror of
    :class:`~repro.serve.metrics.ServiceMetrics`: everything the chaos
    suite asserts against a fault plan's ``fired`` accounting lives
    here.  Worker-*internal* metrics (batching, cache, latency
    histograms) stay in each worker's own service snapshot, aggregated
    by :meth:`FleetRouter.snapshot` under a ``worker`` label.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        #: Requests whose caller cancelled them before their answer came.
        self.cancelled = 0
        #: Futures resolved with worker-side ``InferenceError``.
        self.failed = 0
        #: Futures resolved with ``ServiceOverloadError`` (either shed at
        #: the router's own admission gate or inside a worker's service).
        self.shed = 0
        #: Futures resolved with router-side ``FleetError``.
        self.router_errors = 0
        #: Requests re-dispatched after their worker died.
        self.retries = 0
        #: Speculative duplicate dispatches (tail-latency hedging).
        self.hedges = 0
        #: Hedged requests whose *duplicate* answered first.
        self.hedge_wins = 0
        #: Worker processes lost to crash or hang (not drains).
        self.worker_deaths = 0
        #: Supervision restarts charged against slot budgets.
        self.restarts = 0
        #: Planned replacements (rolling restart), not charged to budgets.
        self.replacements = 0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "cancelled": self.cancelled,
                "failed": self.failed,
                "shed": self.shed,
                "router_errors": self.router_errors,
                "retries": self.retries,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "worker_deaths": self.worker_deaths,
                "restarts": self.restarts,
                "replacements": self.replacements,
            }


class _FleetRequest:
    """One routed request: a future plus its dispatch/retry state."""

    __slots__ = (
        "future",
        "images",
        "options",
        "submitted_at",
        "deadline_at",
        "retries",
        "attempts",
        "hedge_ids",
        "hedged",
        "resolved",
        "first_dispatch_at",
    )

    def __init__(
        self,
        images: np.ndarray,
        options: PredictOptions | None,
    ) -> None:
        self.future: Future = Future()
        self.images = images
        self.options = options
        self.submitted_at = time.perf_counter()
        deadline_ms = getattr(options, "deadline_ms", None)
        self.deadline_at = (
            None
            if deadline_ms is None
            else self.submitted_at + deadline_ms / 1e3
        )
        #: Death-path re-dispatches consumed so far.
        self.retries = 0
        #: Live dispatch attempts as ``(handle, rpc_id)`` pairs -- one
        #: normally, two while a hedge is outstanding.
        self.attempts: list[tuple["_WorkerHandle", int]] = []
        self.hedge_ids: set[int] = set()
        self.hedged = False
        self.resolved = False
        self.first_dispatch_at: float | None = None


class _WorkerHandle:
    """Router-side view of one worker process.

    Outbound frames go through a per-worker writer thread feeding off an
    in-memory outbox, never directly into the stdin pipe from router
    threads.  This is load-bearing for hang detection: router threads
    send *while holding the router lock* (dispatch, hedges, pings), a
    hung worker stops draining its stdin, the OS pipe buffer fills, and
    a direct write would block there -- wedging every submit and answer
    and then the health loop on the same lock, so the very thread that
    should shoot the hung worker deadlocks on it.  With the outbox,
    ``send()`` never blocks (nor raises); backpressure surfaces as
    missed pongs, the health loop SIGKILLs the worker, and the EPIPE
    unblocks the writer thread.
    """

    def __init__(self, slot: int, proc: subprocess.Popen) -> None:
        self.slot = slot
        self.proc = proc
        self.stream = FrameStream(proc.stdout, proc.stdin)
        self.state = SPAWNING
        self.ready = threading.Event()
        #: Requests dispatched to this worker awaiting a response,
        #: keyed by rpc id (guarded by the router lock).
        self.pending: dict[int, _FleetRequest] = {}
        #: Snapshot RPCs awaiting their ``snapshot_result`` frame.
        self.snap_waiters: dict[int, Future] = {}
        self.last_pong = time.perf_counter()
        #: True when the router itself asked this worker to exit (drain,
        #: rolling replacement): its EOF is not a death.
        self.expected_exit = False
        self.reader: threading.Thread | None = None
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        self.writer = threading.Thread(
            target=self._writer_loop,
            name=f"fleet-writer-{slot}",
            daemon=True,
        )
        self.writer.start()

    @property
    def inflight(self) -> int:
        return len(self.pending)

    def kill(self) -> None:
        """SIGKILL the process (hang escalation and fault injection)."""
        try:
            self.proc.kill()
        except OSError:  # pragma: no cover - already gone
            pass

    def send(self, frame: dict) -> None:
        """Enqueue a frame for the worker; never blocks the caller."""
        self._outbox.put(frame)

    def retire_writer(self) -> None:
        """Stop the writer thread once the worker is gone."""
        self._outbox.put(None)

    def _writer_loop(self) -> None:
        while True:
            frame = self._outbox.get()
            if frame is None:
                return
            try:
                self.stream.send(frame)
            except RpcConnectionError:
                # Peer gone mid-write: EOF recovery owns the fallout;
                # drain sentinels so retire_writer() stays a no-op.
                return
            except Exception:  # pragma: no cover - defensive
                logger.exception(
                    "fleet worker %d writer failed; worker will be "
                    "heartbeat-reaped",
                    self.slot,
                )
                return

    def inject_hang(self, seconds: float) -> None:
        """Make the worker's reader loop sleep: alive but unresponsive."""
        self.send({"kind": "hang", "seconds": seconds})

    def inject_slow(self, seconds: float) -> None:
        """Delay the worker's subsequent request submissions."""
        self.send({"kind": "slow", "seconds": seconds})


class FleetRouter:
    """Spawn, supervise and route over a fleet of worker processes.

    Args:
        artifact_path: directory of a saved :class:`~repro.api.ScModel`
            artifact every worker rehydrates from (the bit-exactness
            anchor; an in-memory model must be ``save()``-d first).
        config: fleet knobs (:class:`~repro.config.FleetConfig`).

    Use as a context manager or call :meth:`close` -- close is a
    graceful drain.  The submit/infer/cancel surface mirrors
    :class:`~repro.serve.ScInferenceService`.
    """

    def __init__(
        self,
        artifact_path: str | Path,
        config: FleetConfig | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        self.artifact_path = Path(artifact_path)
        if not self.artifact_path.is_dir():
            raise ConfigurationError(
                f"artifact_path must be a saved ScModel directory, got "
                f"{str(self.artifact_path)!r}"
            )
        self.metrics = FleetMetrics()
        self._window = 2 * self.config.worker_service.max_batch_size

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: deque[_FleetRequest] = deque()
        self._slots: list[_WorkerHandle | None] = [None] * self.config.num_workers
        self._slot_restarts = [0] * self.config.num_workers
        self._pending_spawns = 0
        self._rpc_seq = 0
        self._ping_seq = 0
        self._snap_seq = 0
        self._inflight_total = 0
        self._draining = False
        self._closed = False
        self._stop = threading.Event()
        self._timers: set[threading.Timer] = set()

        try:
            for slot in range(self.config.num_workers):
                handle = self._spawn(slot)
                with self._lock:
                    self._slots[slot] = handle
        except BaseException:
            self._closed = True
            self._stop.set()
            for handle in self._slots:
                if handle is not None:
                    handle.kill()
            raise

        self._health = threading.Thread(
            target=self._health_loop, name="fleet-health", daemon=True
        )
        self._health.start()

    # -- spawning --------------------------------------------------------------

    def _spawn(self, slot: int) -> _WorkerHandle:
        """Start one worker process and block until it reports ready."""
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.fleet_worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker stderr (and stray prints) pass through
            env=env,
        )
        handle = _WorkerHandle(slot, proc)
        handle.reader = threading.Thread(
            target=self._reader_loop,
            args=(handle,),
            name=f"fleet-reader-{slot}",
            daemon=True,
        )
        handle.reader.start()
        handle.send(
            {
                "kind": "init",
                "artifact": str(self.artifact_path),
                "config": self.config.worker_service,
                "slot": slot,
            }
        )
        if not handle.ready.wait(self.config.worker_start_timeout_s):
            handle.kill()
            raise FleetError(
                f"worker {slot} did not become ready within "
                f"{self.config.worker_start_timeout_s}s",
                reason="worker_lost",
            )
        with self._lock:
            if handle.state == DEAD:
                raise FleetError(
                    f"worker {slot} exited during startup",
                    reason="worker_lost",
                )
            handle.state = READY
            handle.last_pong = time.perf_counter()
        logger.info(
            "fleet worker %d ready (pid %d)",
            slot,
            proc.pid,
            extra={
                "obs_event": {
                    "kind": "fleet_worker_ready",
                    "worker": slot,
                    "pid": proc.pid,
                }
            },
        )
        return handle

    def _respawn(self, slot: int) -> None:
        """Backoff-timer target: rebuild a dead slot's worker."""
        try:
            handle = self._spawn(slot)
        except Exception:
            logger.warning(
                "fleet worker %d respawn failed", slot, exc_info=True
            )
            with self._cond:
                self._pending_spawns -= 1
                # A failed start burns another unit of the slot's budget
                # (with deeper backoff); only a spent budget gives up.
                if not self._closed and not self._draining:
                    self._schedule_restart_locked(slot)
                failures = self._fail_if_no_workers_locked()
                self._cond.notify_all()
            self._resolve_failures(failures)
            return
        with self._lock:
            self._pending_spawns -= 1
            if not (self._closed or self._draining):
                self._slots[slot] = handle
                self._dispatch_locked()
                return
            handle.expected_exit = True
        # Router went away while we were spawning: retire the newcomer.
        handle.send({"kind": "drain"})
        handle.kill()

    # -- per-worker reader thread ----------------------------------------------

    def _reader_loop(self, handle: _WorkerHandle) -> None:
        """Demultiplex one worker's frames until EOF (its death or drain)."""
        while True:
            try:
                frame = handle.stream.recv()
            except RpcConnectionError:
                frame = None
            if frame is None:
                break
            kind = frame.get("kind")
            if kind == "response":
                self._resolve(handle, frame["id"], result=frame["response"])
            elif kind == "error":
                self._resolve(
                    handle, frame["id"], error=decode_error(frame["error"])
                )
            elif kind == "pong":
                with self._lock:
                    handle.last_pong = time.perf_counter()
            elif kind == "ready":
                handle.ready.set()
            elif kind == "snapshot_result":
                with self._lock:
                    waiter = handle.snap_waiters.pop(frame.get("id"), None)
                if waiter is not None:
                    try:
                        waiter.set_result(frame.get("snapshot") or {})
                    except Exception:  # pragma: no cover - already timed out
                        pass
            elif kind == "drained":
                handle.expected_exit = True
        self._on_worker_exit(handle)
        try:
            handle.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck exit
            handle.kill()
            handle.proc.wait()

    # -- request resolution ----------------------------------------------------

    def _resolve(
        self,
        handle: _WorkerHandle,
        rpc_id: int,
        result=None,
        error: BaseException | None = None,
    ) -> None:
        """First response wins; duplicates and stale attempts are dropped."""
        stale_attempts: list[tuple[_WorkerHandle, int]] = []
        with self._cond:
            request = handle.pending.pop(rpc_id, None)
            if request is None or request.resolved:
                return
            request.resolved = True
            won_by_hedge = rpc_id in request.hedge_ids
            stale_attempts = [
                (other, other_id)
                for other, other_id in request.attempts
                if other_id != rpc_id
            ]
            request.attempts = []
            for other, other_id in stale_attempts:
                other.pending.pop(other_id, None)
            # From here on ``cancel`` returns False: the answer is settled.
            if not request.future.set_running_or_notify_cancel():
                self.metrics.cancelled += 1
            elif error is None:
                self.metrics.completed += 1
                if won_by_hedge:
                    self.metrics.hedge_wins += 1
            elif isinstance(error, ServiceOverloadError):
                self.metrics.shed += 1
            elif isinstance(error, FleetError):
                self.metrics.router_errors += 1
            else:
                self.metrics.failed += 1
            self._inflight_total -= 1
            self._dispatch_locked()
            self._cond.notify_all()
        # Resolve outside the lock: done-callbacks run inline.  A future
        # the caller already cancelled refuses the result; the request is
        # accounted either way.
        try:
            if error is None:
                request.future.set_result(result)
            else:
                request.future.set_exception(error)
        except Exception:  # pragma: no cover - future cancelled
            pass

    # -- death path ------------------------------------------------------------

    def _on_worker_exit(self, handle: _WorkerHandle) -> None:
        """Reader hit EOF: crash/kill recovery, or an expected drain exit."""
        failures: list[tuple[_FleetRequest, BaseException]] = []
        with self._cond:
            if handle.state == DEAD:
                return
            was_spawning = handle.state == SPAWNING and not handle.ready.is_set()
            handle.state = DEAD
            handle.ready.set()  # unblock a _spawn() waiter, which sees DEAD
            orphans = list(handle.pending.items())
            handle.pending.clear()
            for waiter in handle.snap_waiters.values():
                try:
                    waiter.set_exception(
                        FleetError(
                            f"worker {handle.slot} exited mid-snapshot",
                            reason="worker_lost",
                        )
                    )
                except Exception:  # pragma: no cover
                    pass
            handle.snap_waiters.clear()
            expected = handle.expected_exit or was_spawning
            if not expected:
                self.metrics.worker_deaths += 1
                logger.warning(
                    "fleet worker %d (pid %d) died with %d request(s) "
                    "in flight",
                    handle.slot,
                    handle.proc.pid,
                    len(orphans),
                    extra={
                        "obs_event": {
                            "kind": "fleet_worker_death",
                            "worker": handle.slot,
                            "pid": handle.proc.pid,
                            "inflight": len(orphans),
                        }
                    },
                )
            now = time.perf_counter()
            requeue: list[_FleetRequest] = []
            for _rpc_id, request in orphans:
                request.attempts = [
                    (h, i) for h, i in request.attempts if h is not handle
                ]
                if request.resolved:
                    continue
                if request.attempts:
                    continue  # a hedge twin is still computing elsewhere
                if request.future.cancelled():
                    self._drop_cancelled_locked(request)
                elif (
                    request.deadline_at is not None
                    and now > request.deadline_at
                ):
                    request.resolved = True
                    self.metrics.router_errors += 1
                    self._inflight_total -= 1
                    failures.append(
                        (
                            request,
                            FleetError(
                                "deadline expired while worker "
                                f"{handle.slot} was being replaced",
                                reason="deadline",
                            ),
                        )
                    )
                elif (
                    not self._draining
                    and request.retries < self.config.max_request_retries
                ):
                    request.retries += 1
                    self.metrics.retries += 1
                    requeue.append(request)
                else:
                    request.resolved = True
                    self.metrics.router_errors += 1
                    self._inflight_total -= 1
                    failures.append(
                        (
                            request,
                            FleetError(
                                f"worker {handle.slot} died and the retry "
                                f"budget "
                                f"({self.config.max_request_retries}) is "
                                "spent",
                                reason="worker_lost",
                            ),
                        )
                    )
            # Stranded requests go to the *front*, oldest first, so
            # failover preserves FIFO fairness.
            for request in reversed(requeue):
                self._queue.appendleft(request)
            self._dispatch_locked()
            if (
                not expected
                and not self._draining
                and not self._closed
            ):
                self._schedule_restart_locked(handle.slot)
            failures.extend(self._fail_if_no_workers_locked())
            self._cond.notify_all()
        handle.retire_writer()
        self._resolve_failures(failures)

    def _schedule_restart_locked(self, slot: int) -> None:
        if self._slot_restarts[slot] >= self.config.max_worker_restarts:
            logger.warning(
                "fleet worker %d restart budget (%d) exhausted; slot stays "
                "down",
                slot,
                self.config.max_worker_restarts,
            )
            return
        self._slot_restarts[slot] += 1
        self.metrics.restarts += 1
        attempt = self._slot_restarts[slot]
        backoff_s = min(
            self.config.restart_backoff_ms * (2 ** (attempt - 1)) / 1e3,
            _BACKOFF_CAP_S,
        )
        self._pending_spawns += 1
        timer = threading.Timer(backoff_s, self._respawn_from_timer, (slot,))
        timer.daemon = True
        self._timers.add(timer)
        timer.start()
        logger.info(
            "fleet worker %d restart %d/%d scheduled in %.0f ms",
            slot,
            attempt,
            self.config.max_worker_restarts,
            backoff_s * 1e3,
            extra={
                "obs_event": {
                    "kind": "fleet_worker_restart",
                    "worker": slot,
                    "attempt": attempt,
                    "backoff_ms": backoff_s * 1e3,
                }
            },
        )

    def _respawn_from_timer(self, slot: int) -> None:
        self._timers = {t for t in self._timers if t.is_alive()}
        if self._stop.is_set():
            with self._lock:
                self._pending_spawns -= 1
            return
        self._respawn(slot)

    def _fail_if_no_workers_locked(
        self,
    ) -> list[tuple[_FleetRequest, BaseException]]:
        """With no worker live or pending, queued requests cannot ever run.

        Returns the doomed requests for the caller to resolve *outside*
        the router lock (``set_exception`` runs done-callbacks inline).
        """
        if self._pending_spawns > 0:
            return []
        if any(
            h is not None and h.state in (SPAWNING, READY)
            for h in self._slots
        ):
            return []
        failures: list[tuple[_FleetRequest, BaseException]] = []
        stranded = list(self._queue)
        self._queue.clear()
        for request in stranded:
            if request.resolved:
                continue
            request.resolved = True
            self.metrics.router_errors += 1
            self._inflight_total -= 1
            failures.append(
                (
                    request,
                    FleetError(
                        "no live workers remain and every restart budget "
                        "is spent",
                        reason="no_workers",
                    ),
                )
            )
        return failures

    @staticmethod
    def _resolve_failures(
        failures: list[tuple[_FleetRequest, BaseException]]
    ) -> None:
        for request, error in failures:
            try:
                request.future.set_exception(error)
            except Exception:  # pragma: no cover - future cancelled
                pass

    # -- dispatch --------------------------------------------------------------

    def _pick_worker_locked(
        self, exclude: "_WorkerHandle | None" = None
    ) -> "_WorkerHandle | None":
        """Least-loaded READY worker with dispatch-window headroom.

        The per-worker window -- twice the worker service's
        ``max_batch_size``, one batch computing and one queued behind it
        -- is what keeps one fast (or lone) worker from swallowing the
        whole backlog while a fleet-mate restarts, and what bounds how
        many requests a single death can strand.  Saturated workers are
        simply not candidates; the overflow stays queued.
        """
        best: _WorkerHandle | None = None
        for handle in self._slots:
            if handle is None or handle.state != READY:
                continue
            if handle is exclude:
                continue
            if handle.inflight >= self._window:
                continue
            if best is None or handle.inflight < best.inflight:
                best = handle
        return best

    def _dispatch_locked(self) -> None:
        """Hand queued requests, oldest first, to workers with window room.

        Runs under the router lock on whichever thread just queued a
        request or freed room: :meth:`submit`, an answer in
        :meth:`_resolve`, the death path's requeue, a newly installed
        worker.  Nothing here blocks -- a kill injector is a SIGKILL,
        hang and slow injectors only enqueue a frame, and
        :meth:`_WorkerHandle.send` only enqueues -- so each worker's
        frames leave in dispatch order and its writer thread stays the
        only code that touches the pipe.  Once the router stops, the
        queue stays put for :meth:`close` to fail.
        """
        if self._stop.is_set():
            return
        plan = self.config.fault_plan
        while self._queue:
            handle = self._pick_worker_locked()
            if handle is None:
                return
            request = self._queue.popleft()
            if plan is not None:
                try:
                    plan.before_dispatch(handle.slot, handle)
                except Exception:  # pragma: no cover - injector bug
                    logger.warning("fault plan raised", exc_info=True)
            self._send_attempt_locked(handle, request)

    def _send_attempt_locked(
        self, handle: _WorkerHandle, request: _FleetRequest, hedge: bool = False
    ) -> None:
        """Register one attempt of ``request`` on ``handle`` and queue its
        frame.  If the worker is already dead, its EOF recovery requeues
        or fails the attempt like any other orphan."""
        self._rpc_seq += 1
        rpc_id = self._rpc_seq
        handle.pending[rpc_id] = request
        request.attempts.append((handle, rpc_id))
        if hedge:
            request.hedge_ids.add(rpc_id)
        if request.first_dispatch_at is None:
            request.first_dispatch_at = time.perf_counter()
        handle.send(
            {
                "kind": "request",
                "id": rpc_id,
                "images": request.images,
                "options": request.options,
            }
        )

    # -- health + hedging loop -------------------------------------------------

    def _health_loop(self) -> None:
        interval_s = self.config.heartbeat_interval_ms / 1e3
        budget_s = interval_s * self.config.heartbeat_misses
        # Workers start one by one before this loop runs, so nothing has
        # pinged the earlier ones while their siblings started: their
        # budget starts now, not at their ready frame.
        with self._lock:
            now = time.perf_counter()
            for handle in self._slots:
                if handle is not None and handle.state == READY:
                    handle.last_pong = now
        while not self._stop.wait(interval_s):
            now = time.perf_counter()
            hung: list[_WorkerHandle] = []
            with self._lock:
                self._ping_seq += 1
                for handle in self._slots:
                    if handle is None or handle.state != READY:
                        continue
                    if now - handle.last_pong > budget_s:
                        hung.append(handle)
                    else:
                        handle.send({"kind": "ping", "seq": self._ping_seq})
                self._hedge_locked(now)
            for handle in hung:
                logger.warning(
                    "fleet worker %d missed %d heartbeats; killing",
                    handle.slot,
                    self.config.heartbeat_misses,
                    extra={
                        "obs_event": {
                            "kind": "fleet_worker_hung",
                            "worker": handle.slot,
                            "pid": handle.proc.pid,
                        }
                    },
                )
                handle.kill()

    def _hedge_locked(self, now: float) -> None:
        """Duplicate each request older than ``hedge_after_ms`` onto a
        second worker with window room."""
        if self.config.hedge_after_ms is None or self._draining:
            return
        threshold_s = self.config.hedge_after_ms / 1e3
        for handle in self._slots:
            if handle is None or handle.state != READY:
                continue
            for request in list(handle.pending.values()):
                if (
                    request.resolved
                    or request.hedged
                    or request.future.cancelled()
                    or len(request.attempts) != 1
                    or request.first_dispatch_at is None
                    or now - request.first_dispatch_at < threshold_s
                ):
                    continue
                twin = self._pick_worker_locked(exclude=handle)
                if twin is None:
                    continue
                request.hedged = True
                self.metrics.hedges += 1
                self._send_attempt_locked(twin, request, hedge=True)

    # -- public surface --------------------------------------------------------

    def submit(
        self, images: np.ndarray, options: PredictOptions | None = None
    ) -> Future:
        """Route one request to the fleet; the future resolves to an
        :class:`~repro.serve.InferenceResponse`.

        Admission mirrors the in-process service: a closed/draining
        router raises :class:`~repro.errors.FleetError` (reason
        ``"draining"``); with ``max_inflight`` configured, a submit
        beyond it raises :class:`~repro.errors.ServiceOverloadError`
        (reason ``"queue_full"``) in the caller.  Image/option
        *validation* happens in the worker's service (fail-fast there,
        typed error back here).
        """
        images = np.asarray(images)
        request = _FleetRequest(images, options)
        with self._cond:
            if self._closed or self._draining:
                raise FleetError(
                    "fleet router is draining; not admitting requests",
                    reason="draining",
                )
            if self._pending_spawns == 0 and not any(
                h is not None and h.state in (SPAWNING, READY)
                for h in self._slots
            ):
                raise FleetError(
                    "no live workers remain and every restart budget is "
                    "spent",
                    reason="no_workers",
                )
            if (
                self.config.max_inflight is not None
                and self._inflight_total >= self.config.max_inflight
            ):
                self.metrics.shed += 1
                raise ServiceOverloadError(
                    f"fleet admission: {self._inflight_total} requests in "
                    f"flight >= max_inflight={self.config.max_inflight}",
                    reason="queue_full",
                )
            self.metrics.submitted += 1
            self._inflight_total += 1
            self._queue.append(request)
            self._dispatch_locked()
        return request.future

    def cancel(self, future: Future) -> bool:
        """Drop a submitted request before its answer arrives.

        Returns True when the request was still unanswered and its future
        is now cancelled.  A request still queued at the router is never
        dispatched and leaves ``inflight`` at once; one already on a
        worker finishes there and its answer is dropped.  Either way it
        counts in ``metrics.cancelled``, never in ``completed``.  Returns
        False when the answer is already settled.
        """
        if not future.cancel():
            return False
        with self._cond:
            # A linear scan: a back-reference from the future to its
            # request would be a cycle that keeps each answered request
            # alive until the garbage collector runs.
            for request in self._queue:
                if request.future is future:
                    self._queue.remove(request)
                    self._drop_cancelled_locked(request)
                    self._cond.notify_all()
                    break
        return True

    def _drop_cancelled_locked(self, request: _FleetRequest) -> None:
        """Account a cancelled request that no worker will answer."""
        request.resolved = True
        self.metrics.cancelled += 1
        self._inflight_total -= 1

    def infer(
        self,
        images: np.ndarray,
        options: PredictOptions | None = None,
        timeout: float | None = None,
    ):
        """Synchronous convenience wrapper: submit and wait."""
        return self.submit(images, options).result(timeout=timeout)

    def rolling_restart(self) -> None:
        """Replace every worker, one at a time, dropping zero requests.

        Each slot in turn is fenced off from new dispatches, drained of
        its in-flight requests, asked to exit gracefully, and respawned
        (freshly rehydrated from the artifact) before the next slot is
        touched -- the config/artifact rollout path.  Replacements are
        counted in ``metrics.replacements``, not against restart
        budgets.
        """
        deadline = time.monotonic() + self.config.drain_timeout_s
        for slot in range(self.config.num_workers):
            with self._lock:
                handle = self._slots[slot]
                if handle is None or handle.state != READY:
                    continue
                handle.state = DRAINING
            # Wait out the in-flight requests this worker still owns.
            while time.monotonic() < deadline:
                with self._lock:
                    if not handle.pending:
                        break
                time.sleep(0.01)
            with self._lock:
                handle.expected_exit = True
            handle.send({"kind": "drain"})
            try:
                handle.proc.wait(
                    timeout=max(0.1, deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                handle.kill()
                handle.proc.wait()
            replacement = self._spawn(slot)
            with self._lock:
                self._slots[slot] = replacement
                self.metrics.replacements += 1
                self._dispatch_locked()
            logger.info(
                "fleet worker %d replaced (rolling restart)",
                slot,
                extra={
                    "obs_event": {
                        "kind": "fleet_worker_replaced",
                        "worker": slot,
                    }
                },
            )

    # -- observability ---------------------------------------------------------

    def snapshot(self, worker_timeout_s: float = 5.0) -> dict:
        """Fleet counters plus every live worker's service snapshot.

        The per-worker sections are full
        :meth:`~repro.serve.ScInferenceService.snapshot` dicts fetched
        over the RPC, keyed by slot; a worker that fails to answer
        within ``worker_timeout_s`` (dead, hung, mid-restart) is
        reported as ``None`` rather than blocking the scrape.
        :func:`repro.obs.prometheus_text` renders this dict as the
        router's ``repro_fleet_*`` families plus each worker's service
        families under a ``worker`` label.
        """
        waiters: list[tuple[int, Future]] = []
        with self._lock:
            states = {
                slot: (handle.state if handle is not None else DEAD)
                for slot, handle in enumerate(self._slots)
            }
            targets = [
                h for h in self._slots if h is not None and h.state == READY
            ]
            for handle in targets:
                self._snap_seq += 1
                waiter: Future = Future()
                handle.snap_waiters[self._snap_seq] = waiter
                waiters.append((handle.slot, waiter))
                handle.send({"kind": "snapshot", "id": self._snap_seq})
            queue_depth = len(self._queue)
            inflight = self._inflight_total
        workers: dict[int, dict | None] = {
            slot: None for slot in states
        }
        for slot, waiter in waiters:
            try:
                workers[slot] = waiter.result(timeout=worker_timeout_s)
            except Exception:
                workers[slot] = None
        fleet = self.metrics.snapshot()
        fleet["queue_depth"] = queue_depth
        fleet["inflight"] = inflight
        fleet["workers_ready"] = sum(
            1 for state in states.values() if state == READY
        )
        fleet["worker_states"] = {
            str(slot): state for slot, state in states.items()
        }
        return {"fleet": fleet, "workers": workers}

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Graceful drain: stop admitting, finish in-flight work, exit all.

        Bounded by ``drain_timeout_s``: requests still unresolved when it
        elapses fail with :class:`~repro.errors.FleetError` (reason
        ``"draining"``) and stragglers are killed.  Idempotent.
        """
        with self._cond:
            if self._closed:
                return
            self._draining = True
        deadline = time.monotonic() + self.config.drain_timeout_s
        with self._cond:
            while (self._queue or self._inflight_total > 0) and (
                time.monotonic() < deadline
            ):
                self._cond.wait(timeout=0.05)
        # Stop the control threads before tearing workers down so the
        # health checker cannot shoot a worker mid-drain.
        self._stop.set()
        for timer in list(self._timers):
            timer.cancel()
        self._health.join(timeout=5)
        failures: list[tuple[_FleetRequest, FleetError]] = []
        with self._cond:
            self._closed = True
            leftovers = list(self._queue)
            self._queue.clear()
            for handle in self._slots:
                if handle is None:
                    continue
                leftovers.extend(
                    req
                    for req in handle.pending.values()
                    if req not in leftovers
                )
                handle.pending.clear()
                handle.expected_exit = True
            for request in leftovers:
                if request.resolved:
                    continue
                request.resolved = True
                self.metrics.router_errors += 1
                self._inflight_total -= 1
                failures.append(
                    (
                        request,
                        FleetError(
                            "request abandoned: drain timeout elapsed",
                            reason="draining",
                        ),
                    )
                )
            handles = [h for h in self._slots if h is not None]
        self._resolve_failures(failures)
        for handle in handles:
            if handle.state != DEAD:
                handle.send({"kind": "drain"})
        for handle in handles:
            if handle.proc.poll() is not None:
                continue
            try:
                handle.proc.wait(
                    timeout=max(0.1, deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                handle.kill()
                handle.proc.wait()
        for handle in handles:
            handle.retire_writer()
            if handle.reader is not None:
                handle.reader.join(timeout=5)
            handle.writer.join(timeout=5)
            handle.stream.close()
        logger.info(
            "fleet router closed (%d workers)", len(handles)
        )

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            ready = sum(
                1
                for h in self._slots
                if h is not None and h.state == READY
            )
        return (
            f"FleetRouter(workers={self.config.num_workers}, ready={ready}, "
            f"artifact={str(self.artifact_path)!r})"
        )
