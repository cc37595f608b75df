"""The benchmark's three workloads and the load generators that drive them.

Each workload stands the program up from the stored model artifact
(:meth:`Workload.setup`, timed as ``setup_s``), drives it for a fixed
time from one generator (:meth:`Workload.measure`) and records every call
as a :class:`Call`: when it was due, sent and answered, and what came
back, so the correctness gate can check answers after the timed phase.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

BACKEND = "bit-exact-native"
MODEL_NAME = "bench"


@dataclass
class Call:
    """One request (or one batch call) of the measured phase."""

    kind: str  # "batch", "unary" or "stream"
    images: list[int]
    due: float
    sent: float = 0.0
    first: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str = ""
    #: Scores at each image's answered checkpoint, ``(images, classes)``.
    scores: list = field(default_factory=list)
    exits: list[int] = field(default_factory=list)
    #: SSE only: ``[(checkpoint, image positions, scores)]`` per event.
    events: list = field(default_factory=list)
    #: Latency the serving layer itself reported for the call (ms).
    served_ms: float | None = None

    @property
    def latency_ms(self) -> float:
        """Client latency from the due time (the send time of a closed loop)."""
        return (self.done - self.due) * 1e3 if self.ok else float("inf")

    @property
    def first_ms(self) -> float:
        return (self.first - self.due) * 1e3 if self.ok else float("inf")


@dataclass
class Phase:
    """The measured phase: its calls and wall-clock window."""

    start: float
    end: float = 0.0
    calls: list[Call] = field(default_factory=list)
    exhausted: bool = False

    @property
    def answered_images(self) -> int:
        return sum(len(call.images) for call in self.calls if call.ok)


def digit_images(seed: int, count: int) -> np.ndarray:
    """``count`` unique synthetic digit images drawn from ``seed`` only."""
    from repro.datasets import generate_digit_dataset

    data = generate_digit_dataset(10, max(10, count), seed=seed)
    return data.test_images[:count, None].astype(np.float64)


class Workload:
    """Base class: set up, measure, snapshot and close one serving stack."""

    name = ""
    #: Worker threads or processes the workload runs its compute on.
    parallelism = 1
    #: Upper bound on images the generator consumes per measured second.
    images_per_second = 10.0
    #: Images reserved for set-up and warm-up calls (never measured).
    warm_images = 3
    #: Whether answers come from the early-exit policy (else full stream).
    early_exit = True

    def __init__(self, artifact: str, seed: int) -> None:
        self.artifact = artifact
        self.seed = seed

    def image_budget(self, seconds: float) -> int:
        return int(seconds * self.images_per_second) + 64

    def setup(self, warm: np.ndarray, traced: bool):
        """Stand the stack up and answer one warm call from ``warm``."""
        raise NotImplementedError

    def warm_up(self, handle, warm: np.ndarray) -> None:
        """Untimed calls that let lazy per-replica state fill first."""

    def measure(self, handle, images: np.ndarray, seconds: float) -> Phase:
        raise NotImplementedError

    def snapshot(self, handle) -> dict:
        raise NotImplementedError

    def close(self, handle) -> None:
        raise NotImplementedError


# -- offline-batch ----------------------------------------------------------------


class OfflineBatch(Workload):
    """Closed loop, one caller: ``Session.predict`` on 32-image batches."""

    name = "offline-batch"
    parallelism = 1
    batch = 32
    warm_images = 32
    images_per_second = 60.0
    early_exit = False

    def setup(self, warm, traced):
        from repro.api import Session
        from repro.config import PredictOptions

        session = Session.from_artifact(self.artifact, backend=BACKEND)
        # The first answered request is one of the workload's own batches.
        session.predict(warm[: self.batch], PredictOptions(early_exit=False))
        return session

    def measure(self, session, images, seconds):
        from repro.config import PredictOptions

        options = PredictOptions(early_exit=False)
        phase = Phase(start=time.perf_counter())
        deadline = phase.start + seconds
        for first in range(0, len(images) - self.batch + 1, self.batch):
            now = time.perf_counter()
            if now >= deadline:
                break
            call = Call("batch", list(range(first, first + self.batch)), due=now)
            call.sent = now
            result = session.predict(images[first : first + self.batch], options)
            call.first = call.done = time.perf_counter()
            call.ok = True
            call.scores = result.scores.tolist()
            call.exits = [int(e) for e in result.exit_checkpoints]
            phase.calls.append(call)
        else:
            phase.exhausted = True
        phase.end = time.perf_counter()
        return phase

    def snapshot(self, session):
        snap = session.obs_snapshot()
        return {"kernels": snap["kernels"], "services": [], "fleet": None}

    def close(self, session):
        session.close()


# -- serve-single -----------------------------------------------------------------


class ServeSingle(Workload):
    """Open loop of 1-image requests into an in-process service."""

    name = "serve-single"
    parallelism = 2
    #: Offered load; below single-image capacity on a 2-CPU host.
    rate = 4.0
    images_per_second = rate

    def image_budget(self, seconds):
        return int(round(seconds * self.rate)) + 8

    def setup(self, warm, traced):
        from repro.api import Session
        from repro.config import ServiceConfig

        session = Session.from_artifact(self.artifact, backend=BACKEND)
        service = session.serve(
            ServiceConfig(
                backend=BACKEND,
                trace_sample_rate=1.0 if traced else 0.0,
                trace_capacity=64,
            )
        )
        service.submit(warm[0]).result(timeout=120)
        return session, service

    def warm_up(self, handle, warm):
        futures = [handle[1].submit(image) for image in warm[1:3]]
        for future in futures:
            future.result(timeout=120)

    def schedule(self, seconds: float, count: int) -> np.ndarray:
        """Arrival offsets: ``count`` Poisson arrivals in ``[0, seconds)``.

        A Poisson process conditioned on its count places the arrivals
        uniformly; fixing the count keeps the offered load equal across
        seeds, so seeds differ only in arrival pattern and images.
        """
        rng = np.random.default_rng([self.seed, 1])
        return np.sort(rng.uniform(0.0, seconds, size=count))

    def measure(self, handle, images, seconds):
        _, service = handle
        count = min(len(images), int(round(seconds * self.rate)))
        offsets = self.schedule(seconds, count)
        phase = Phase(start=time.perf_counter() + 0.05)
        pending = []
        answered = threading.Semaphore(0)

        def on_done(_future, call) -> None:
            call.done = time.perf_counter()
            answered.release()

        for index, offset in enumerate(offsets):
            due = phase.start + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            call = Call("unary", [index], due=due)
            call.sent = time.perf_counter()
            future = service.submit(images[index])
            future.add_done_callback(lambda fut, call=call: on_done(fut, call))
            pending.append((call, future))
        for _ in pending:
            answered.acquire(timeout=120)
        for call, future in pending:
            try:
                response = future.result(timeout=1)
            except Exception as exc:  # every failure is counted, not raised
                call.error = repr(exc)
            else:
                call.ok = True
                call.first = call.done
                call.scores = response.scores.tolist()
                call.exits = [int(e) for e in response.exit_checkpoints]
                call.served_ms = response.latency_seconds * 1e3
            phase.calls.append(call)
        phase.end = max([phase.start] + [c.done for c in phase.calls if c.ok])
        return phase

    def snapshot(self, handle):
        snap = handle[1].snapshot()
        return {"kernels": snap["kernels"], "services": [snap], "fleet": None}

    def close(self, handle):
        session, service = handle
        service.close()
        session.close()


# -- http-fleet-mixed -----------------------------------------------------------


class HttpFleetMixed(Workload):
    """Closed loop, 2 keep-alive clients: HTTP -> registry -> fleet workers.

    Each request is unary ``/predict`` or an SSE ``/predict/stream``: a
    seeded coin picks which request of each consecutive pair streams.
    """

    name = "http-fleet-mixed"
    parallelism = 2
    clients = 2
    images_per_second = 12.0

    def setup(self, warm, traced):
        from repro.config import FleetConfig, HttpConfig, ServiceConfig
        from repro.serve import ModelRegistry, ScHttpServer

        # A 2 s heartbeat budget instead of the default 0.5 s: the router
        # starts its health checks only after spawning every worker, so
        # with the default a worker whose start-up outlasts the budget is
        # declared hung and killed on every fleet start (a worker start
        # takes ~0.5 s on a 2-CPU host).  Measured runs must not restart
        # workers at random.
        fleet = FleetConfig(
            num_workers=2,
            heartbeat_misses=20,
            service=ServiceConfig(
                backend=BACKEND,
                num_workers=1,
                trace_sample_rate=1.0 if traced else 0.0,
                trace_capacity=64,
            ),
        )
        registry = ModelRegistry(models={MODEL_NAME: self.artifact}, fleet=fleet)
        try:
            server = ScHttpServer(registry, HttpConfig(port=0)).start_background()
        except BaseException:
            registry.close()
            raise
        handle = (registry, server)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
        try:
            call = Call("unary", [0], due=time.perf_counter())
            self._unary(conn, warm[:1], call)
        finally:
            conn.close()
        if not call.ok:
            self.close(handle)
            raise RuntimeError(f"warm request failed: {call.error}")
        return handle

    @staticmethod
    def _post(conn, path: str, image: np.ndarray) -> http.client.HTTPResponse:
        body = json.dumps({"images": image.tolist()})
        conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        return conn.getresponse()

    def _unary(self, conn, image, call: Call) -> None:
        call.sent = time.perf_counter()
        response = self._post(conn, f"/v1/models/{MODEL_NAME}/predict", image)
        payload = json.loads(response.read())
        call.first = call.done = time.perf_counter()
        if response.status != 200:
            call.error = f"HTTP {response.status}: {payload}"
            return
        call.ok = True
        call.scores = payload["scores"]
        call.exits = payload["exit_checkpoints"]
        call.served_ms = payload["latency_ms"]

    def _stream(self, port: int, image, call: Call) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            call.sent = time.perf_counter()
            response = self._post(conn, f"/v1/models/{MODEL_NAME}/predict/stream", image)
            if response.status != 200:
                call.error = f"HTTP {response.status}: {response.read()!r}"
                return
            while True:
                line = response.readline()
                if not line:
                    call.error = "stream ended without a done event"
                    return
                if not line.startswith(b"data: "):
                    continue
                event = json.loads(line[6:])
                if event["kind"] == "checkpoint":
                    if not call.events:
                        call.first = time.perf_counter()
                    call.events.append(
                        (event["checkpoint"], event["images"], event["scores"])
                    )
                elif event["kind"] == "done":
                    call.done = time.perf_counter()
                    call.ok = bool(call.events) and all(event["evaluated"])
                    call.scores = event["scores"]
                    call.exits = event["exit_checkpoints"]
                    call.served_ms = event["latency_ms"]
                    if not call.ok:
                        call.error = f"incomplete stream: {event}"
                    return
                else:
                    call.error = f"stream error event: {event}"
                    return
        finally:
            conn.close()

    def warm_up(self, handle, warm):
        port = handle[1].port
        calls = [Call("unary", [0], due=0.0) for _ in range(self.clients)]

        def one(i: int) -> None:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                self._unary(conn, warm[1 + i : 2 + i], calls[i])
            finally:
                conn.close()

        threads = [
            threading.Thread(target=one, args=(i,)) for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def measure(self, handle, images, seconds):
        _, server = handle
        # A seeded coin per pair of requests: one of each pair streams,
        # so the mix is exactly half and half on every seed.
        rng = np.random.default_rng([self.seed, 2])
        pairs = (len(images) + 1) // 2
        first = rng.random(pairs) < 0.5
        streams = np.stack([first, ~first], axis=1).reshape(-1)[: len(images)]
        lock = threading.Lock()
        cursor = iter(range(len(images)))
        phase = Phase(start=time.perf_counter())
        deadline = phase.start + seconds

        def client() -> None:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
            try:
                while time.perf_counter() < deadline:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        phase.exhausted = True
                        return
                    kind = "stream" if streams[index] else "unary"
                    call = Call(kind, [index], due=time.perf_counter())
                    try:
                        if kind == "stream":
                            self._stream(server.port, images[index][None], call)
                        else:
                            self._unary(conn, images[index][None], call)
                    except (OSError, http.client.HTTPException, ValueError) as exc:
                        call.error = repr(exc)
                        conn.close()
                        conn = http.client.HTTPConnection(
                            "127.0.0.1", server.port, timeout=120
                        )
                    if not call.done:
                        call.done = time.perf_counter()
                    with lock:
                        phase.calls.append(call)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, name=f"perfbench-client-{i}")
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.calls.sort(key=lambda call: call.images[0])
        phase.end = max([phase.start] + [c.done for c in phase.calls])
        return phase

    def snapshot(self, handle):
        from repro.obs import merge_kernel_snapshots

        registry, _ = handle
        snap = registry.snapshot()[MODEL_NAME]["snapshot"]
        services = [w for w in snap["workers"].values() if w is not None]
        return {
            "kernels": merge_kernel_snapshots(w["kernels"] for w in services),
            "services": services,
            "fleet": snap["fleet"],
        }

    def close(self, handle):
        registry, server = handle
        try:
            server.close()
        finally:
            registry.close()


WORKLOADS = {cls.name: cls for cls in (OfflineBatch, ServeSingle, HttpFleetMixed)}
