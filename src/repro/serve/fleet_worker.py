"""Fleet worker process: one :class:`ScInferenceService` behind pipe RPC.

Spawned by :class:`repro.serve.fleet.FleetRouter` as
``python -m repro.serve.fleet_worker``.  The process rehydrates a
bit-exact :class:`~repro.api.ScModel` from the shared artifact directory
named in the router's ``init`` frame (the PR 5 cross-process mechanism),
stands up an embedded inference service on it, and then serves frames
until the router drains it or the pipe closes.

Stream discipline: the RPC owns the *original* stdout file descriptor --
it is dup'ed away at startup and fd 1 is redirected onto stderr, so a
stray ``print()`` anywhere in the worker (user code, a library, a
warning) lands in the router's log stream instead of corrupting the
length-prefixed framing.

The reader loop must stay responsive while batches compute, because
heartbeat ``ping`` frames are answered inline: the embedded service does
its work on its own worker threads (and NumPy releases the GIL
in the kernels), so the loop is effectively always ready to pong --
unless a ``hang`` control frame deliberately puts it to sleep, which is
exactly how :class:`~repro.serve.faults.WorkerHang` simulates a live but
unresponsive process.

Shutdown paths:

* ``drain`` frame or ``SIGTERM`` -- stop reading new frames, wait for
  every in-flight request future, close the service, send ``drained``,
  exit 0 (the router's graceful-drain and rolling-replacement path).
* stdin EOF / broken pipe -- the router died; close the service and
  exit without ceremony.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

__all__ = ["main"]


class _DrainRequested(Exception):
    """Raised by the SIGTERM handler to interrupt the blocking read."""


class _Worker:
    def __init__(self, stream) -> None:
        self._stream = stream
        self._service = None
        self._slot = -1
        # Request futures still in flight, keyed by rpc id; guarded by
        # ``_lock`` against the done-callback threads that retire them.
        self._inflight: dict[int, object] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        # Seconds of artificial latency applied to subsequently arriving
        # requests (the SlowWorker injector); 0.0 = no delay.
        self._slow_s = 0.0

    # -- frame handlers --------------------------------------------------------

    def handle_init(self, frame: dict) -> None:
        from repro.api import ScModel
        from repro.serve.service import ScInferenceService

        self._slot = int(frame.get("slot", -1))
        model = ScModel.load(frame["artifact"])
        self._service = ScInferenceService(model.mapper(), frame["config"])
        self._stream.send(
            {"kind": "ready", "slot": self._slot, "pid": os.getpid()}
        )

    def handle_request(self, frame: dict) -> None:
        rpc_id = frame["id"]
        delay = self._slow_s
        if delay > 0.0:
            # SlowWorker: the process stays live (pings keep flowing; the
            # delay runs on a timer thread, not the reader loop) but the
            # answer is late.
            threading.Timer(
                delay, self._submit, args=(rpc_id, frame)
            ).start()
            return
        self._submit(rpc_id, frame)

    def _submit(self, rpc_id: int, frame: dict) -> None:
        from repro.serve.rpc import encode_error

        try:
            future = self._service.submit(
                frame["images"], frame.get("options")
            )
        except Exception as exc:
            # Fail-fast submit errors (shape/options/overload) answer
            # immediately, typed, without ever occupying a slot.
            self._stream.send(
                {"kind": "error", "id": rpc_id, "error": encode_error(exc)}
            )
            return
        with self._lock:
            self._inflight[rpc_id] = future
        future.add_done_callback(
            lambda fut, rpc_id=rpc_id: self._finish(rpc_id, fut)
        )

    def _finish(self, rpc_id: int, future) -> None:
        from repro.serve.rpc import RpcConnectionError, encode_error

        try:
            exc = future.exception()
            if exc is None:
                payload = {
                    "kind": "response",
                    "id": rpc_id,
                    "response": future.result(),
                }
            else:
                payload = {
                    "kind": "error",
                    "id": rpc_id,
                    "error": encode_error(exc),
                }
            self._stream.send(payload)
        except RpcConnectionError:
            pass  # router is gone; the EOF path will shut us down
        finally:
            with self._lock:
                self._inflight.pop(rpc_id, None)
                if not self._inflight:
                    self._idle.notify_all()

    def handle_control(self, frame: dict) -> None:
        kind = frame["kind"]
        if kind == "ping":
            self._stream.send({"kind": "pong", "seq": frame.get("seq")})
        elif kind == "snapshot":
            snap = self._service.snapshot() if self._service else {}
            self._stream.send(
                {"kind": "snapshot_result", "id": frame.get("id"), "snapshot": snap}
            )
        elif kind == "hang":
            # Simulated hang: the reader loop -- the only thread that can
            # pong -- sleeps, so the router's heartbeat misses accumulate
            # and it SIGKILLs us.  In-flight work may still complete.
            time.sleep(float(frame.get("seconds", 3600.0)))
        elif kind == "slow":
            self._slow_s = float(frame.get("seconds", 0.0))

    # -- lifecycle -------------------------------------------------------------

    def drain(self, notify: bool) -> None:
        from repro.serve.rpc import RpcConnectionError

        with self._lock:
            while self._inflight:
                self._idle.wait(timeout=0.1)
        if self._service is not None:
            self._service.close()
        if notify:
            try:
                self._stream.send({"kind": "drained", "slot": self._slot})
            except RpcConnectionError:
                pass

    def run(self) -> int:
        from repro.serve.rpc import RpcConnectionError

        try:
            while True:
                frame = self._stream.recv()
                if frame is None:
                    # Router closed our stdin: abandon in-flight work
                    # (nobody is listening) and die quickly so a kill -9
                    # of the router doesn't leave orphans computing.
                    if self._service is not None:
                        self._service.close()
                    return 0
                kind = frame.get("kind")
                if kind == "init":
                    self.handle_init(frame)
                elif kind == "request":
                    self.handle_request(frame)
                elif kind == "drain":
                    self.drain(notify=True)
                    return 0
                else:
                    self.handle_control(frame)
        except _DrainRequested:
            self.drain(notify=True)
            return 0
        except RpcConnectionError:
            if self._service is not None:
                self._service.close()
            return 0


def main() -> int:
    # Claim the real stdout for RPC frames before anything can print to
    # it, then point fd 1 at stderr so stray writes stay out of band.
    rpc_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    from repro.serve.rpc import FrameStream

    stream = FrameStream(
        os.fdopen(0, "rb", buffering=0),
        os.fdopen(rpc_fd, "wb", buffering=0),
    )

    def _on_sigterm(signum, sig_frame):
        raise _DrainRequested()

    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # router Ctrl-C is not ours

    return _Worker(stream).run()


if __name__ == "__main__":
    sys.exit(main())
