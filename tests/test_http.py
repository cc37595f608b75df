"""HTTP front end + model registry: the serving stack on the wire.

Pins down the network-surface contracts of :mod:`repro.serve.http` and
:mod:`repro.serve.registry`:

* **the wire adds no numerics** -- unary responses and every streamed
  checkpoint event are bit-identical to in-process
  :meth:`~repro.api.Session.predict` (checkpoint events against the
  matching single-point prefix schedule, the terminal event against the
  full early-exit result, exit checkpoints included), in-process and
  through a fleet worker;
* **a stream is one request** -- its events come from the planes of one
  service evaluation, cached or computed, and overload caps its exits;
* **typed errors survive HTTP** -- malformed JSON / oversized bodies /
  unknown models / unknown options map to 4xx with machine-readable
  ``type``/``reason`` fields, deadline shedding maps to 504 with
  ``reason="deadline"`` and never writes the result cache (the PR 6
  invariant extended to the wire);
* **hot reload is atomic** -- overwriting an artifact and scanning swaps
  the replica pool with zero dropped requests under concurrent load,
  every response is bit-exact against one of the two artifact versions,
  and a request in flight across the swap is labelled with the
  generation that answered it;
* **drain extends through open connections** -- a stream open across
  ``close()`` finishes its evaluation instead of dying mid-chunk, and an
  idle keep-alive connection is hung up;
* **the wire contract holds for malformed heads** -- raw-socket probes
  (garbage request lines, oversized heads, bad lengths, wrong methods)
  answer typed JSON errors with the same statuses as ever.
"""

import http.client
import json
import socket
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from nets import tiny_cnn, wait_until_held

from repro.api import PredictOptions, ScModel, Session
from repro.config import FleetConfig, HttpConfig, ServiceConfig
from repro.errors import ConfigurationError, ModelNotFoundError
from repro.obs import validate_exposition
from repro.serve import ModelRegistry, ScHttpServer, describe_artifact
from repro.serve.faults import FaultPlan, SlowReplica

BACKEND = "bit-exact-packed"
STREAM_LENGTH = 128


def _tiny_model(seed: int) -> ScModel:
    return ScModel(
        tiny_cnn(seed), weight_bits=10, stream_length=STREAM_LENGTH, seed=7
    )


def _service_config(**overrides) -> ServiceConfig:
    defaults = dict(backend=BACKEND, num_workers=1, cache_capacity=0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _request(port, method, path, body=None, timeout=120.0):
    """One HTTP request; returns ``(status, parsed-or-raw body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        if isinstance(body, (dict, list)):
            body = json.dumps(body)
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        raw = resp.read()
    finally:
        conn.close()
    if resp.getheader("Content-Type", "").startswith("application/json"):
        return resp.status, json.loads(raw)
    return resp.status, raw


def _read_events(resp):
    """Decode SSE ``data:`` events from a streaming response."""
    events = []
    for block in resp.read().decode("utf-8").split("\n\n"):
        if block.startswith("data: "):
            events.append(json.loads(block[len("data: ") :]))
    return events


def _stream(port, path, body, timeout=120.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(body))
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == "text/event-stream"
        return _read_events(resp)
    finally:
        conn.close()


_PREDICT = b"POST /v1/models/m1/predict HTTP/1.1\r\n"


def _raw_response(port, *pieces: bytes, timeout=30.0):
    """Send raw request bytes, piece by piece; returns the first
    response's status and its JSON body."""
    address = ("127.0.0.1", port)
    with socket.create_connection(address, timeout=timeout) as sock:
        for piece in pieces:
            sock.sendall(piece)
        raw = b""
        while b"\r\n\r\n" not in raw:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        length = next(
            int(line.split(b":", 1)[1])
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                break
            body += chunk
    return int(head.split(b" ", 2)[1]), json.loads(body)


def _assert_exact_prefixes(session, images, events):
    """Every checkpoint event equals ``Session.predict`` at its prefix."""
    checkpoints = [e for e in events if e["kind"] == "checkpoint"]
    assert checkpoints
    for event in checkpoints:
        point = event["checkpoint"]
        reference = session.predict(
            images[event["images"]],
            PredictOptions(
                stream_length=point, checkpoints=(point,), early_exit=False
            ),
        )
        assert np.array_equal(
            np.asarray(event["scores"]), reference.scores
        ), f"checkpoint {point} not an exact prefix"


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((4, 1, 28, 28))


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    return _tiny_model(seed=5).save(tmp_path_factory.mktemp("models") / "m1")


@pytest.fixture(scope="module")
def session(artifact):
    with Session.from_artifact(artifact, backend=BACKEND) as sess:
        yield sess


@pytest.fixture(scope="module")
def server(artifact):
    registry = ModelRegistry(
        models={"m1": artifact},
        service=_service_config(cache_capacity=64, num_workers=2),
    )
    with ScHttpServer(registry, HttpConfig()) as srv:
        yield srv
    registry.close()


class TestProbesAndCatalog:
    def test_healthz(self, server):
        status, payload = _request(server.port, "GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "draining": False}

    def test_readyz(self, server):
        status, payload = _request(server.port, "GET", "/readyz")
        assert status == 200
        assert payload == {"status": "ready", "models": ["m1"]}

    def test_models_listing(self, server, artifact):
        status, payload = _request(server.port, "GET", "/v1/models")
        assert status == 200
        (entry,) = payload["models"]
        info = describe_artifact(artifact)
        assert entry["name"] == "m1"
        assert entry["format_version"] == info.format_version
        assert entry["weight_bits"] == info.weight_bits
        assert entry["stream_length"] == STREAM_LENGTH
        assert entry["sha256"] == info.sha256

    def test_metrics_golden_parse(self, server, images):
        status, _ = _request(
            server.port,
            "POST",
            "/v1/models/m1/predict",
            {"images": images[:1].tolist()},
        )
        assert status == 200
        status, raw = _request(server.port, "GET", "/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        families = validate_exposition(text)
        assert families["repro_requests_total"] == "counter"
        # A single-model process serves its pool's unlabelled exposition.
        assert any(
            line.startswith("repro_requests_total ")
            for line in text.splitlines()
        )

    def test_metrics_label_each_model(self, artifact, images):
        registry = ModelRegistry(
            models={"m1": artifact, "m2": artifact},
            service=_service_config(),
        )
        try:
            with ScHttpServer(registry, HttpConfig()) as server:
                status, _ = _request(
                    server.port,
                    "POST",
                    "/v1/models/m1/predict",
                    {"images": images[:1].tolist()},
                )
                assert status == 200
                status, raw = _request(server.port, "GET", "/metrics")
        finally:
            registry.close()
        assert status == 200
        text = raw.decode("utf-8")
        families = validate_exposition(text)
        lines = text.splitlines()
        assert 'repro_model_up{model="m2"} 0.0' in lines
        assert 'repro_requests_total{model="m1"} 1.0' in lines
        assert any(
            line.startswith('repro_queue_time_ms_count{model="m1"} ')
            for line in lines
        )
        assert "repro_model_requests_total" not in families

    def test_unknown_route_404(self, server):
        status, payload = _request(server.port, "GET", "/nope")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"

    def test_wrong_method_405(self, server):
        status, payload = _request(server.port, "GET", "/v1/models/m1/predict")
        assert status == 405
        assert payload["error"]["type"] == "MethodNotAllowed"


class TestUnaryPredict:
    def test_bit_identical_to_session(self, server, session, images):
        status, payload = _request(
            server.port,
            "POST",
            "/v1/models/m1/predict",
            {"images": images.tolist()},
        )
        assert status == 200
        reference = session.predict(images, PredictOptions(early_exit=True))
        assert np.array_equal(np.asarray(payload["scores"]), reference.scores)
        assert np.array_equal(
            np.asarray(payload["predictions"]), reference.predictions
        )
        assert np.array_equal(
            np.asarray(payload["exit_checkpoints"]),
            reference.exit_checkpoints,
        )
        assert payload["stream_length"] == STREAM_LENGTH
        assert payload["model"] == "m1"

    def test_wire_options_respected(self, server, session, images):
        body = {
            "images": images.tolist(),
            "options": {"stream_length": 64, "early_exit": False},
        }
        status, payload = _request(
            server.port, "POST", "/v1/models/m1/predict", body
        )
        assert status == 200
        reference = session.predict(
            images, PredictOptions(stream_length=64, early_exit=False)
        )
        assert np.array_equal(np.asarray(payload["scores"]), reference.scores)
        assert max(payload["exit_checkpoints"]) <= 64

    def test_repeat_request_is_cache_served(self, server):
        repeat = np.random.default_rng(21).random((2, 1, 28, 28)).tolist()
        _, first = _request(
            server.port, "POST", "/v1/models/m1/predict", {"images": repeat}
        )
        _, second = _request(
            server.port, "POST", "/v1/models/m1/predict", {"images": repeat}
        )
        assert first["cached"] == [False, False]
        assert second["cached"] == [True, True]
        assert second["scores"] == first["scores"]


class TestStreaming:
    def test_checkpoints_bit_identical_to_prefixes(
        self, server, session, images
    ):
        events = _stream(
            server.port, "/v1/models/m1/predict/stream", {"images": images.tolist()}
        )
        assert events[-1]["kind"] == "done"
        checkpoints = [e for e in events if e["kind"] == "checkpoint"]
        assert checkpoints and checkpoints[0]["checkpoint"] == STREAM_LENGTH // 8
        for event in checkpoints:
            point = event["checkpoint"]
            subset = images[event["images"]]
            reference = session.predict(
                subset,
                PredictOptions(
                    stream_length=point,
                    checkpoints=(point,),
                    early_exit=False,
                ),
            )
            assert np.array_equal(
                np.asarray(event["scores"]), reference.scores
            ), f"checkpoint {point} not an exact prefix"
            assert np.array_equal(
                np.asarray(event["predictions"]), reference.predictions
            )

    def test_done_event_matches_early_exit_predict(
        self, server, session, images
    ):
        events = _stream(
            server.port, "/v1/models/m1/predict/stream", {"images": images.tolist()}
        )
        done = events[-1]
        assert done["kind"] == "done"
        assert done["reason"] in ("complete", "early_exit")
        reference = session.predict(images, PredictOptions(early_exit=True))
        assert np.array_equal(np.asarray(done["scores"]), reference.scores)
        assert np.array_equal(
            np.asarray(done["predictions"]), reference.predictions
        )
        assert np.array_equal(
            np.asarray(done["exit_checkpoints"]), reference.exit_checkpoints
        )
        assert all(done["evaluated"])

    def test_exited_images_leave_the_stream(self, server, images):
        events = _stream(
            server.port, "/v1/models/m1/predict/stream", {"images": images.tolist()}
        )
        done = events[-1]
        gone: set[int] = set()
        for event in events[:-1]:
            assert not gone.intersection(event["images"])
            gone.update(event["exited"])
        # Each image's reported exit checkpoint is the last one it was
        # streamed at.
        last_seen = {}
        for event in events[:-1]:
            for index in event["images"]:
                last_seen[index] = event["checkpoint"]
        assert [last_seen[i] for i in range(images.shape[0])] == done[
            "exit_checkpoints"
        ]

    def test_explicit_schedule_streams_every_point(
        self, server, session, images
    ):
        schedule = [32, 64, 128]
        events = _stream(
            server.port,
            "/v1/models/m1/predict/stream",
            {
                "images": images.tolist(),
                "options": {"checkpoints": schedule, "early_exit": False},
            },
        )
        checkpoints = [e["checkpoint"] for e in events if e["kind"] == "checkpoint"]
        assert checkpoints == schedule
        assert events[-1]["reason"] == "complete"
        reference = session.predict(
            images,
            PredictOptions(checkpoints=tuple(schedule), early_exit=False),
        )
        assert np.array_equal(
            np.asarray(events[-1]["scores"]), reference.scores
        )

    def test_stream_is_one_request(self, artifact, images):
        registry = ModelRegistry(
            models={"m1": artifact}, service=_service_config()
        )
        try:
            with ScHttpServer(registry, HttpConfig()) as server:
                events = _stream(
                    server.port,
                    "/v1/models/m1/predict/stream",
                    {"images": images.tolist(), "options": {"early_exit": False}},
                )
                requests = registry.pool("m1").snapshot()["requests"]
        finally:
            registry.close()
        checkpoints = [e["checkpoint"] for e in events if e["kind"] == "checkpoint"]
        assert checkpoints == [16, 32, 64, 128]
        assert requests == 1

    def test_done_latency_is_the_service_latency(
        self, artifact, images, monkeypatch
    ):
        """``done`` reports the service's latency, as a unary answer
        does: time spent writing the checkpoint events is not in it."""
        write_event = ScHttpServer._sse_event

        def slow_event(writer, payload):
            time.sleep(0.1)
            write_event(writer, payload)

        monkeypatch.setattr(ScHttpServer, "_sse_event", staticmethod(slow_event))
        registry = ModelRegistry(
            models={"m1": artifact}, service=_service_config()
        )
        try:
            with ScHttpServer(registry, HttpConfig()) as server:
                events = _stream(
                    server.port,
                    "/v1/models/m1/predict/stream",
                    {"images": images.tolist(), "options": {"early_exit": False}},
                )
                served = registry.pool("m1").snapshot()["latency_ms"]
        finally:
            registry.close()
        done = events[-1]
        assert [e["kind"] for e in events] == ["checkpoint"] * 4 + ["done"]
        assert done["latency_ms"] == pytest.approx(served["p50"])
        # The four checkpoint events alone were delayed by 400 ms.
        assert done["latency_ms"] < 400.0

    def test_cached_stream_matches_cold_stream(self, server):
        fresh = np.random.default_rng(43).random((3, 1, 28, 28))
        body = {"images": fresh.tolist()}
        path = "/v1/models/m1/predict/stream"
        cold = _stream(server.port, path, body)
        warm = _stream(server.port, path, body)

        def checkpoint_events(events, cached):
            out = []
            for event in events:
                if event["kind"] == "checkpoint":
                    assert event["cached"] == [cached] * len(event["images"])
                    out.append({**event, "cached": None})
            return out

        assert checkpoint_events(warm, True) == checkpoint_events(cold, False)
        for key in ("reason", "scores", "predictions", "exit_checkpoints"):
            assert warm[-1][key] == cold[-1][key]

    def test_fleet_stream_bit_identical_to_prefixes(
        self, artifact, session, images
    ):
        fleet = FleetConfig(
            num_workers=1, heartbeat_misses=15, service=_service_config()
        )
        registry = ModelRegistry(models={"m1": artifact}, fleet=fleet)
        try:
            with ScHttpServer(registry, HttpConfig()) as server:
                events = _stream(
                    server.port,
                    "/v1/models/m1/predict/stream",
                    {"images": images.tolist()},
                )
        finally:
            registry.close()
        _assert_exact_prefixes(session, images, events)
        done = events[-1]
        reference = session.predict(images, PredictOptions(early_exit=True))
        assert np.array_equal(np.asarray(done["scores"]), reference.scores)
        assert done["exit_checkpoints"] == reference.exit_checkpoints.tolist()

    def test_overloaded_stream_stays_under_its_cap(
        self, artifact, session, images
    ):
        # degrade_queue_depth=1: the stream's own request overloads the
        # service, which caps exits at the last checkpoint <= N/2.
        registry = ModelRegistry(
            models={"m1": artifact},
            service=_service_config(
                degrade_queue_depth=1, degraded_max_fraction=0.5
            ),
        )
        try:
            with ScHttpServer(registry, HttpConfig()) as server:
                events = _stream(
                    server.port,
                    "/v1/models/m1/predict/stream",
                    {"images": images.tolist(), "options": {"early_exit": False}},
                )
        finally:
            registry.close()
        done = events[-1]
        assert done["kind"] == "done" and done["degraded"]
        cap = STREAM_LENGTH // 2
        checkpoints = [e["checkpoint"] for e in events if e["kind"] == "checkpoint"]
        assert checkpoints == [16, 32, cap]
        assert done["exit_checkpoints"] == [cap] * images.shape[0]
        _assert_exact_prefixes(session, images, events)


class TestTypedRejections:
    def test_malformed_json_400(self, server):
        status, payload = _request(
            server.port, "POST", "/v1/models/m1/predict", "{not json"
        )
        assert status == 400
        assert payload["error"]["reason"] == "malformed_json"

    def test_non_object_body_400(self, server):
        status, payload = _request(
            server.port, "POST", "/v1/models/m1/predict", [1, 2, 3]
        )
        assert status == 400
        assert payload["error"]["reason"] == "malformed_json"

    def test_missing_images_400(self, server):
        status, payload = _request(
            server.port, "POST", "/v1/models/m1/predict", {"options": {}}
        )
        assert status == 400
        assert payload["error"]["reason"] == "missing_images"

    def test_ragged_images_400(self, server):
        status, payload = _request(
            server.port,
            "POST",
            "/v1/models/m1/predict",
            {"images": [[1.0, 2.0], [3.0]]},
        )
        assert status == 400
        assert payload["error"]["reason"] == "bad_images"

    def test_unknown_option_400(self, server):
        # workers shards a batch inside one Session.predict call and
        # executor is gone; the service and fleet never honoured either.
        for options in (
            {"temperature": 2},
            {"workers": 2},
            {"executor": "thread"},
        ):
            for route in ("predict", "predict/stream"):
                status, payload = _request(
                    server.port,
                    "POST",
                    f"/v1/models/m1/{route}",
                    {"images": [[0.5]], "options": options},
                )
                assert status == 400, (options, route)
                assert payload["error"]["reason"] == "bad_options"

    def test_unknown_model_404(self, server, images):
        for route in ("predict", "predict/stream"):
            status, payload = _request(
                server.port,
                "POST",
                f"/v1/models/ghost/{route}",
                {"images": images.tolist()},
            )
            assert status == 404, route
            assert payload["error"]["type"] == "ModelNotFoundError"
            assert payload["error"]["reason"] == "unknown_model"

    def test_stream_past_the_model_400(self, server, images):
        status, payload = _request(
            server.port,
            "POST",
            "/v1/models/m1/predict/stream",
            {
                "images": images.tolist(),
                "options": {"stream_length": 2 * STREAM_LENGTH},
            },
        )
        assert status == 400
        assert payload["error"]["type"] == "ConfigurationError"

    def test_oversized_body_413(self, artifact):
        registry = ModelRegistry(
            models={"m1": artifact}, service=_service_config()
        )
        config = HttpConfig(max_body_bytes=1024)
        try:
            with ScHttpServer(registry, config) as server:
                big = {"images": [[0.5] * 2000]}
                status, payload = _request(
                    server.port, "POST", "/v1/models/m1/predict", big
                )
                assert status == 413
                assert payload["error"]["reason"] == "oversized_body"
        finally:
            registry.close()

    def test_oversized_body_is_drained_piece_by_piece(self, artifact):
        # A body past the limit but within the drain cutoff (8x) is read
        # and discarded before the 413, never held whole by the server.
        registry = ModelRegistry(
            models={"m1": artifact}, service=_service_config()
        )
        limit = 1 << 20
        piece = bytes(64 * 1024)
        n_pieces = 7 * limit // len(piece)
        head = _PREDICT + b"Content-Length: %d\r\n\r\n" % (n_pieces * len(piece))
        try:
            with ScHttpServer(registry, HttpConfig(max_body_bytes=limit)) as server:
                tracemalloc.start()
                try:
                    status, payload = _raw_response(
                        server.port, head, *[piece] * n_pieces
                    )
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        finally:
            registry.close()
        assert status == 413
        assert payload["error"]["reason"] == "oversized_body"
        assert peak < 1 << 20

    def test_shape_error_400(self, server):
        status, payload = _request(
            server.port,
            "POST",
            "/v1/models/m1/predict",
            {"images": [[0.1, 0.2, 0.3]]},
        )
        assert status == 400
        assert payload["error"]["type"] in ("ShapeError", "EncodingError")

    def test_unmappable_image_400_without_restart(self, artifact):
        registry = ModelRegistry(
            models={"m1": artifact}, service=_service_config()
        )
        try:
            with ScHttpServer(registry, HttpConfig()) as server:
                status, payload = _request(
                    server.port,
                    "POST",
                    "/v1/models/m1/predict",
                    {"images": np.full((1, 1, 20, 20), 0.5).tolist()},
                )
                snapshot = registry.snapshot()["m1"]["snapshot"]
        finally:
            registry.close()
        assert status == 400
        assert payload["error"]["type"] == "ShapeError"
        assert snapshot["faults"]["restarts"] == 0


class TestWireContract:
    """Raw-socket probes of malformed heads: status and typed body."""

    @pytest.mark.parametrize(
        "request_bytes, status, error_type",
        [
            pytest.param(b"GARBAGE\r\n\r\n", 400, "BadRequest", id="garbage"),
            pytest.param(
                b"GET / HTTP/9.9\r\n\r\n", 400, "BadRequest", id="http-9.9"
            ),
            pytest.param(
                b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                431,
                "BadRequest",
                id="70kb-request-line",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-Big: "
                + b"a" * 70_000
                + b"\r\n\r\n",
                431,
                "BadRequest",
                id="70kb-header-line",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-A: "
                + b"a" * 35_000
                + b"\r\nX-B: "
                + b"b" * 35_000
                + b"\r\n\r\n",
                431,
                "BadRequest",
                id="head-over-64kib",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\nno colon here\r\n\r\n",
                400,
                "BadRequest",
                id="header-without-colon",
            ),
            pytest.param(
                b"PUT /v1/models/m1/predict HTTP/1.1\r\n"
                b"Content-Length: 0\r\n\r\n",
                405,
                "MethodNotAllowed",
                id="put",
            ),
            pytest.param(
                _PREDICT + b"Content-Length: -3\r\n\r\n",
                400,
                "BadRequest",
                id="negative-length",
            ),
            pytest.param(
                _PREDICT + b"Transfer-Encoding: chunked\r\n\r\n",
                411,
                "BadRequest",
                id="chunked",
            ),
            # Refused before any ``100 Continue``, which would otherwise
            # be the first status line read.
            pytest.param(
                _PREDICT
                + b"Content-Length: 1000000000000\r\n"
                + b"Expect: 100-continue\r\n\r\n",
                413,
                "BadRequest",
                id="oversized-expect-100",
            ),
        ],
    )
    def test_probe_answers_typed_json(
        self, server, request_bytes, status, error_type
    ):
        got, payload = _raw_response(server.port, request_bytes)
        assert got == status
        assert payload["error"]["type"] == error_type
        assert payload["error"]["status"] == status

    def test_keep_alive_serves_sequential_requests(self, server, images):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=120
        )
        body = json.dumps({"images": images[:1].tolist()})
        sockets = []
        try:
            for _ in range(3):
                conn.request("POST", "/v1/models/m1/predict", body=body)
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                assert resp.status == 200, payload
                assert not resp.will_close
                sockets.append(conn.sock)
        finally:
            conn.close()
        assert sockets[0] is not None
        assert all(sock is sockets[0] for sock in sockets)


class TestDeadlineOnTheWire:
    """The PR 6 deadline invariant extended through HTTP."""

    @pytest.fixture()
    def shed_server(self, artifact):
        registry = ModelRegistry(
            models={"m1": artifact},
            service=_service_config(shed_unmeetable_deadlines=True),
        )
        with ScHttpServer(registry, HttpConfig()) as srv:
            yield srv
        registry.close()

    def test_unmeetable_deadline_returns_typed_504(self, shed_server, images):
        # One computed request primes the service's streaming-rate
        # estimate; only then can an unmeetable deadline be priced.
        status, _ = _request(
            shed_server.port,
            "POST",
            "/v1/models/m1/predict",
            {"images": images.tolist()},
        )
        assert status == 200
        status, payload = _request(
            shed_server.port,
            "POST",
            "/v1/models/m1/predict",
            {
                "images": images.tolist(),
                "options": {"deadline_ms": 0.001},
            },
        )
        assert status == 504
        assert payload["error"]["type"] == "ServiceOverloadError"
        assert payload["error"]["reason"] == "deadline"

    def test_streaming_deadline_ends_typed(self, shed_server, images):
        status, _ = _request(
            shed_server.port,
            "POST",
            "/v1/models/m1/predict",
            {"images": images.tolist()},
        )
        assert status == 200
        events = _stream(
            shed_server.port,
            "/v1/models/m1/predict/stream",
            {
                "images": images.tolist(),
                "options": {"deadline_ms": 0.001},
            },
        )
        terminal = events[-1]
        if terminal["kind"] == "error":
            assert terminal["error"]["reason"] == "deadline"
        else:
            assert terminal["kind"] == "done"
            assert terminal["reason"] == "deadline"

    def test_server_side_timeout_cancels_the_request(self, artifact, images):
        # A replica held for 1 s keeps the request queued past the wire's
        # 300 ms budget: the client gets a typed 504 and the pool drops
        # the request instead of computing an answer nobody reads.
        plan = FaultPlan(SlowReplica(at_batch=0, delay_s=1.0))
        registry = ModelRegistry(
            models={"m1": artifact},
            service=_service_config(fault_plan=plan),
        )
        try:
            config = HttpConfig(request_timeout_s=0.3)
            with ScHttpServer(registry, config) as server:
                pool = registry.pool("m1")
                holder = pool.submit(images)
                wait_until_held(plan)
                status, payload = _request(
                    server.port,
                    "POST",
                    "/v1/models/m1/predict",
                    {"images": images.tolist()},
                )
                holder.result(timeout=120)
                faults = pool.snapshot()["faults"]
        finally:
            registry.close()
        assert status == 504
        assert payload["error"]["type"] == "DeadlineExceeded"
        assert payload["error"]["reason"] == "deadline"
        assert faults["cancelled_requests"] == 1

    def test_deadline_requests_never_write_the_cache(self, artifact):
        registry = ModelRegistry(
            models={"m1": artifact},
            service=_service_config(cache_capacity=64),
        )
        probe = np.random.default_rng(31).random((2, 1, 28, 28)).tolist()
        try:
            with ScHttpServer(registry, HttpConfig()) as server:
                # Deadline generous enough to complete -- the request
                # succeeds, but a deadline-budgeted result must not be
                # cached (wall-clock dependent answers poison reuse).
                status, first = _request(
                    server.port,
                    "POST",
                    "/v1/models/m1/predict",
                    {
                        "images": probe,
                        "options": {"deadline_ms": 60000},
                    },
                )
                assert status == 200
                assert first["cached"] == [False, False]
                status, second = _request(
                    server.port,
                    "POST",
                    "/v1/models/m1/predict",
                    {"images": probe},
                )
                assert status == 200
                assert second["cached"] == [False, False]  # no stale write
                status, third = _request(
                    server.port,
                    "POST",
                    "/v1/models/m1/predict",
                    {"images": probe},
                )
                assert third["cached"] == [True, True]  # plain one cached
        finally:
            registry.close()


class TestHotReload:
    def test_scan_swaps_bit_exactly(self, tmp_path, images):
        path = _tiny_model(seed=5).save(tmp_path / "m")
        registry = ModelRegistry(
            models={"m": path}, service=_service_config()
        )
        try:
            with ScHttpServer(registry, HttpConfig()) as server:
                with Session.from_artifact(path, backend=BACKEND) as sess:
                    v1 = sess.predict(images, PredictOptions(early_exit=True))
                status, before = _request(
                    server.port,
                    "POST",
                    "/v1/models/m/predict",
                    {"images": images.tolist()},
                )
                assert status == 200
                assert np.array_equal(np.asarray(before["scores"]), v1.scores)
                assert before["generation"] == 1

                _tiny_model(seed=17).save(tmp_path / "m")
                changes = registry.scan()
                assert changes["reloaded"] == ["m"]

                with Session.from_artifact(path, backend=BACKEND) as sess:
                    v2 = sess.predict(images, PredictOptions(early_exit=True))
                assert not np.array_equal(v1.scores, v2.scores)
                status, after = _request(
                    server.port,
                    "POST",
                    "/v1/models/m/predict",
                    {"images": images.tolist()},
                )
                assert status == 200
                assert np.array_equal(np.asarray(after["scores"]), v2.scores)
                assert after["generation"] > before["generation"]
        finally:
            registry.close()

    def test_reload_drops_no_requests_under_load(self, tmp_path, images):
        path = _tiny_model(seed=5).save(tmp_path / "m")
        registry = ModelRegistry(
            models={"m": path},
            service=_service_config(num_workers=2),
        )
        with Session.from_artifact(path, backend=BACKEND) as sess:
            v1 = sess.predict(images, PredictOptions(early_exit=True))
        try:
            with ScHttpServer(registry, HttpConfig()) as server:
                results: list = []
                errors: list = []
                stop = threading.Event()

                def hammer():
                    while not stop.is_set():
                        try:
                            status, payload = _request(
                                server.port,
                                "POST",
                                "/v1/models/m/predict",
                                {"images": images.tolist()},
                            )
                            results.append((status, payload))
                        except Exception as exc:  # noqa: BLE001
                            errors.append(exc)

                threads = [
                    threading.Thread(target=hammer) for _ in range(4)
                ]
                for t in threads:
                    t.start()
                try:
                    while len(results) < 8 and not errors:
                        time.sleep(0.02)
                    _tiny_model(seed=17).save(tmp_path / "m")
                    changes = registry.scan()
                    while len(results) < 24 and not errors:
                        time.sleep(0.02)
                finally:
                    stop.set()
                    for t in threads:
                        t.join(timeout=120)
                with Session.from_artifact(path, backend=BACKEND) as sess:
                    v2 = sess.predict(images, PredictOptions(early_exit=True))
                assert not errors
                assert changes["reloaded"] == ["m"]
                generations = set()
                for status, payload in results:
                    assert status == 200, payload
                    scores = np.asarray(payload["scores"])
                    assert np.array_equal(scores, v1.scores) or np.array_equal(
                        scores, v2.scores
                    ), "a response matched neither artifact generation"
                    generations.add(payload["generation"])
                assert 2 in generations  # the new pool actually served
        finally:
            registry.close()

    def test_in_flight_request_keeps_its_generation(self, tmp_path, images):
        # A held replica keeps the request in flight on generation 1 while
        # the reload swaps generation 2 in.
        path = _tiny_model(seed=5).save(tmp_path / "m")
        plan = FaultPlan(SlowReplica(at_batch=0, delay_s=2.0))
        registry = ModelRegistry(
            models={"m": path}, service=_service_config(fault_plan=plan)
        )
        with Session.from_artifact(path, backend=BACKEND) as sess:
            v1 = sess.predict(images, PredictOptions(early_exit=True))
        answers: list = []
        try:
            with ScHttpServer(registry, HttpConfig()) as server:
                registry.pool("m")  # build generation 1 up front
                request = threading.Thread(
                    target=lambda: answers.append(
                        _request(
                            server.port,
                            "POST",
                            "/v1/models/m/predict",
                            {"images": images.tolist()},
                        )
                    )
                )
                request.start()
                wait_until_held(plan)
                _tiny_model(seed=17).save(tmp_path / "m")
                assert registry.scan()["reloaded"] == ["m"]
                assert request.is_alive()  # still held across the swap
                request.join(timeout=120)
                assert not request.is_alive()
        finally:
            registry.close()
        ((status, payload),) = answers
        assert status == 200, payload
        assert np.array_equal(np.asarray(payload["scores"]), v1.scores)
        assert payload["generation"] == 1


class TestDrain:
    def test_drain_with_open_stream_ends_typed(self, artifact, images):
        # A held replica keeps the stream's evaluation open long enough
        # to drain across it.
        plan = FaultPlan(SlowReplica(at_batch=0, delay_s=0.5))
        registry = ModelRegistry(
            models={"m1": artifact},
            service=_service_config(fault_plan=plan),
        )
        server = ScHttpServer(registry, HttpConfig()).start_background()
        closer: threading.Thread | None = None
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=120
            )
            conn.request(
                "POST",
                "/v1/models/m1/predict/stream",
                body=json.dumps(
                    {
                        "images": images.tolist(),
                        "options": {
                            "checkpoints": [16, 32, 48, 64, 80, 96, 112, 128],
                            "early_exit": False,
                        },
                    }
                ),
            )
            resp = conn.getresponse()
            assert resp.status == 200
            wait_until_held(plan)
            closer = threading.Thread(target=server.close)
            closer.start()
            events = _read_events(resp)
            conn.close()
            terminal = events[-1]
            assert terminal["kind"] in ("done", "error")
            if terminal["kind"] == "done":
                assert terminal["reason"] in ("draining", "complete")
            else:
                assert terminal["error"]["reason"] == "draining"
            closer.join(timeout=120)
            assert not closer.is_alive()
        finally:
            if closer is not None and closer.is_alive():  # pragma: no cover
                closer.join(timeout=10)
            server.close()
            registry.close()

    def test_close_hangs_up_idle_keep_alive(self, artifact):
        registry = ModelRegistry(
            models={"m1": artifact}, service=_service_config()
        )
        server = ScHttpServer(registry, HttpConfig()).start_background()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200 and not resp.will_close
            started = time.monotonic()
            server.close()
            assert time.monotonic() - started < 2.0
            conn.sock.settimeout(5.0)
            assert conn.sock.recv(1) == b""
        finally:
            conn.close()
            server.close()
            registry.close()

    def test_close_under_connection_churn_returns_promptly(self, artifact):
        # Eight clients open, use and drop connections while close() runs.
        # A lost update to the server's connection bookkeeping would leave
        # a closed connection "open" and hold the drain to its timeout.
        registry = ModelRegistry(
            models={"m1": artifact}, service=_service_config()
        )
        config = HttpConfig(drain_timeout_s=20.0)
        server = ScHttpServer(registry, config).start_background()
        stop = threading.Event()
        answered: list = []

        def churn():
            while not stop.is_set():
                try:
                    answered.append(
                        _request(server.port, "GET", "/healthz", timeout=5)[0]
                    )
                except OSError:
                    pass

        threads = [threading.Thread(target=churn) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30.0
            while len(answered) < 50 and time.monotonic() < deadline:
                time.sleep(0.01)
            started = time.monotonic()
            server.close()
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30)
            server.close()
            registry.close()
        assert not any(thread.is_alive() for thread in threads)
        assert len(answered) >= 50 and set(answered) == {200}
        assert elapsed < 5.0

    def test_readyz_reports_draining(self, artifact):
        registry = ModelRegistry(
            models={"m1": artifact}, service=_service_config()
        )
        server = ScHttpServer(registry, HttpConfig()).start_background()
        try:
            port = server.port
            status, _ = _request(port, "GET", "/readyz")
            assert status == 200
            server.close()
            with pytest.raises(OSError):
                _request(port, "GET", "/readyz", timeout=5)
        finally:
            server.close()
            registry.close()


class TestRegistryUnit:
    def test_unknown_name_is_typed(self, artifact, images):
        registry = ModelRegistry(
            models={"m1": artifact}, service=_service_config()
        )
        try:
            with pytest.raises(ModelNotFoundError) as excinfo:
                registry.submit("ghost", images)
            assert excinfo.value.model == "ghost"
        finally:
            registry.close()

    def test_describe_artifact_rejects_non_artifact(self, tmp_path):
        with pytest.raises(ConfigurationError):
            describe_artifact(tmp_path)

    def test_root_scan_discovers_and_forgets(self, tmp_path):
        root = tmp_path / "registry"
        root.mkdir()
        _tiny_model(seed=5).save(root / "alpha")
        registry = ModelRegistry(root=root, service=_service_config())
        try:
            assert registry.names() == ["alpha"]
            _tiny_model(seed=6).save(root / "beta")
            assert registry.scan()["added"] == ["beta"]
            assert registry.names() == ["alpha", "beta"]
            import shutil

            shutil.rmtree(root / "alpha")
            assert registry.scan()["removed"] == ["alpha"]
            assert registry.names() == ["beta"]
        finally:
            registry.close()

    def test_empty_registry_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelRegistry()


class TestModelsCli:
    def test_listing_matches_manifest(self, artifact, capsys):
        from repro.cli import main

        assert main(["models", "--model", str(artifact), "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        info = describe_artifact(artifact)
        assert listing == [info.listing()]
