"""HTTP/JSON front end streaming progressive stochastic-computing results.

The network surface over the serving stack: the standard library's
threaded ``http.server`` (no web framework, no new dependency; one thread
per connection, blocking on its pool's future as an in-process caller
does) fronting a :class:`~repro.serve.registry.ModelRegistry` of
artifact-backed replica pools -- in-process
:class:`~repro.serve.ScInferenceService` pools by default, multi-process
:class:`~repro.serve.FleetRouter` pools in fleet mode.

Routes:

========================================  ====================================
``GET /healthz``                          liveness (200 even while draining)
``GET /readyz``                           readiness (503 draining / empty)
``GET /v1/models``                        registry catalog listing
``GET /metrics``                          Prometheus text exposition
``POST /v1/models/{name}/predict``        unary batch inference
``POST /v1/models/{name}/predict/stream`` SSE progressive checkpoint stream
========================================  ====================================

The streaming route is the paper's progressive-precision story on the
wire.  In stochastic computing the first ``P`` cycles of an ``N``-cycle
stream already are the lower-precision answer, so the pool's one
evaluation of a request yields every checkpoint of its schedule.  A
stream is that one request: its response carries the per-checkpoint score
planes (:attr:`~repro.serve.InferenceResponse.checkpoint_scores`), and the
route writes one Server-Sent Event per checkpoint from them, then a
terminal ``done`` event.  Event ``k`` lists the images whose exit is at or
after checkpoint ``k``; its ``exited`` field names the images that stop
there.  All events are written when the evaluation ends.  Every streamed
score plane is an exact prefix evaluation, bit-identical to in-process
:meth:`~repro.api.Session.predict` prefixes (asserted in
``tests/test_http.py``), and the exits are the service's own early-exit,
deadline and overload decisions.

Typed failures keep their semantics across the wire: deadline-shed
requests return HTTP 504 with ``reason="deadline"`` (and, because a
deadline-budgeted request is never cacheable, they can never poison the
result cache); queue-full shedding is 429; a draining or worker-less
fleet is 503; malformed requests are 4xx with machine-readable ``type`` /
``reason`` fields.  A stream refused after its head went out ends with
the same payload as a typed ``error`` event.  Graceful drain extends
through open connections: idle keep-alive connections are hung up, a
request in flight finishes and closes its connection, and an open stream
finishes its one evaluation.
"""

from __future__ import annotations

import contextlib
import http.server
import json
import logging
import socket
import socketserver
import sys
import threading
from concurrent.futures import TimeoutError as FuturesTimeoutError

import numpy as np

from repro.config import HttpConfig, PredictOptions
from repro.errors import (
    ConfigurationError,
    EncodingError,
    FleetError,
    InferenceError,
    ModelNotFoundError,
    RemoteWorkerError,
    ReproError,
    ServiceOverloadError,
    ShapeError,
)
from repro.serve.registry import ModelRegistry

__all__ = ["HttpError", "ScHttpServer", "error_response"]

logger = logging.getLogger("repro.serve.http")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Largest request head (request line and headers) accepted; the standard
#: library bounds each line and the header count, but not their total.
_MAX_HEAD_BYTES = 64 * 1024
#: Read size of the drain that discards a refused (too large) body.
_DRAIN_PIECE_BYTES = 64 * 1024

#: How long each ``serve_forever`` poll waits, and so how long stopping
#: the listener can take.
_POLL_INTERVAL_S = 0.01

_OPTION_KEYS = (
    "stream_length",
    "checkpoints",
    "early_exit",
    "deadline_ms",
)


class HttpError(ReproError):
    """A request rejected at the HTTP layer with a definite status code."""

    def __init__(
        self, status: int, error_type: str, message: str, reason: str = ""
    ) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.reason = reason


def error_response(exc: BaseException) -> tuple[int, dict]:
    """Map an exception to ``(status, error payload)``.

    The wire contract of the typed error hierarchy: shedding and deadline
    semantics must survive HTTP.  ``reason`` is copied from the exception
    when it carries one, so category-specific client backoff
    (``"queue_full"`` vs ``"deadline"`` vs ``"draining"``) works without
    string matching.
    """
    reason = getattr(exc, "reason", "")
    if isinstance(exc, HttpError):
        status, error_type = exc.status, exc.error_type
    elif isinstance(exc, ModelNotFoundError):
        status, error_type, reason = 404, "ModelNotFoundError", "unknown_model"
    elif isinstance(exc, ServiceOverloadError):
        status = 504 if reason == "deadline" else 429
        error_type = "ServiceOverloadError"
    elif isinstance(exc, FleetError):
        if reason == "deadline":
            status = 504
        elif reason in ("draining", "no_workers"):
            status = 503
        else:
            status = 502
        error_type = "FleetError"
    elif isinstance(exc, (ShapeError, EncodingError, ConfigurationError)):
        status, error_type = 400, type(exc).__name__
    elif isinstance(exc, (InferenceError, RemoteWorkerError)):
        status, error_type = 500, type(exc).__name__
    elif isinstance(exc, (TimeoutError, FuturesTimeoutError)):
        status, error_type, reason = 504, "DeadlineExceeded", "deadline"
    else:
        status, error_type = 500, "InternalError"
    payload = {
        "error": {
            "type": error_type,
            "reason": reason,
            "message": str(exc) or error_type,
            "status": status,
        }
    }
    return status, payload


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _respond(
    wfile,
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
) -> None:
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    wfile.write(head.encode("latin-1") + body)


def _respond_json(wfile, status: int, payload: dict, keep_alive=True) -> None:
    _respond(wfile, status, _json_bytes(payload), keep_alive=keep_alive)


def _respond_error(wfile, exc: BaseException, keep_alive=True) -> None:
    status, payload = error_response(exc)
    _respond_json(wfile, status, payload, keep_alive=keep_alive)


def _hang_up(sock: socket.socket) -> None:
    """Wake the connection's thread: closing the socket would not."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)


class ScHttpServer:
    """HTTP front end over a :class:`ModelRegistry`.

    :meth:`start_background` binds the port and serves from daemon
    threads, one per connection; :meth:`close` drains and stops it.  Also
    usable as a context manager.

    Args:
        registry: the model catalog to serve (closed by the caller, not
            by the server).
        config: :class:`~repro.config.HttpConfig` knobs (``None`` =
            defaults: loopback, ephemeral port).
    """

    def __init__(
        self, registry: ModelRegistry, config: HttpConfig | None = None
    ) -> None:
        self.registry = registry
        self.config = config or HttpConfig()
        self.host = self.config.host
        self.port = self.config.port
        self._listener: _Listener | None = None
        self._scanner: threading.Thread | None = None
        self._draining = threading.Event()
        # Open connections, and those idle between requests: a drain
        # hangs up the idle ones at once and waits for the others.
        self._connections = threading.Condition()
        self._open: set[socket.socket] = set()
        self._idle: set[socket.socket] = set()

    # -- lifecycle -------------------------------------------------------------

    def start_background(self) -> "ScHttpServer":
        """Bind the listener and serve from daemon threads.

        Returns once the port is bound; ``self.port`` holds it after.
        """
        if self._listener is not None:
            raise ConfigurationError("server already started")
        self._listener = _Listener(self)
        self.port = self._listener.server_address[1]
        threading.Thread(
            target=self._listener.serve_forever,
            args=(_POLL_INTERVAL_S,),
            name="repro-http",
            daemon=True,
        ).start()
        if self.config.reload_interval_s:
            self._scanner = threading.Thread(
                target=self._scan_loop, name="repro-http-reload", daemon=True
            )
            self._scanner.start()
        logger.info(
            "http: serving %d model(s) on %s:%d",
            len(self.registry),
            self.host,
            self.port,
        )
        return self

    def close(self) -> None:
        """Graceful shutdown: stop accepting, finish open connections.

        Sets the draining flag and hangs up idle keep-alive connections;
        a request in flight finishes and closes its connection, and an
        open stream finishes its one evaluation.  New connections are
        refused.  Connections still open after ``drain_timeout_s`` are
        cut off.
        """
        listener, self._listener = self._listener, None
        if listener is None:
            return
        with self._connections:
            self._draining.set()
            for sock in self._idle:
                _hang_up(sock)
        listener.shutdown()
        listener.server_close()
        if self._scanner is not None:
            self._scanner.join(timeout=self.config.drain_timeout_s)
        with self._connections:
            busy = len(self._open)
            self._connections.wait_for(
                lambda: not self._open, timeout=self.config.drain_timeout_s
            )
            for sock in self._open:
                _hang_up(sock)
            if busy:
                logger.info(
                    "http: drained %d connection(s), cut off %d",
                    busy - len(self._open),
                    len(self._open),
                )

    def __enter__(self) -> "ScHttpServer":
        return self.start_background()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def _scan_loop(self) -> None:
        """Poll the registry for artifact changes (hot reload)."""
        while not self._draining.wait(self.config.reload_interval_s):
            try:
                changes = self.registry.scan()
            except Exception:  # pragma: no cover - scan must never kill serve
                logger.exception("http: registry scan failed")
                continue
            if any(changes.values()):
                logger.info("http: registry scan applied %s", changes)

    # -- connection bookkeeping -----------------------------------------------

    def _opened(self, sock: socket.socket) -> None:
        with self._connections:
            self._open.add(sock)

    def _closed(self, sock: socket.socket) -> None:
        with self._connections:
            self._open.discard(sock)
            self._connections.notify_all()

    def _await_request(self, sock: socket.socket, rfile) -> bool:
        """Block until the connection's next request starts.

        Returns ``False`` on client EOF or drain (which hangs up the
        connection while it waits here).
        """
        with self._connections:
            if self._draining.is_set():
                return False
            self._idle.add(sock)
        try:
            return bool(rfile.peek(1))
        except OSError:
            return False
        finally:
            with self._connections:
                self._idle.discard(sock)

    # -- routing ---------------------------------------------------------------

    def _dispatch(self, method: str, path: str, body: bytes, wfile) -> bool:
        """Route one request; returns whether to keep the connection."""
        try:
            if path == "/healthz":
                self._require(method, "GET")
                _respond_json(
                    wfile,
                    200,
                    {"status": "ok", "draining": self._draining.is_set()},
                )
                return True
            if path == "/readyz":
                self._require(method, "GET")
                if self._draining.is_set():
                    _respond_json(
                        wfile, 503, {"status": "draining"}, keep_alive=False
                    )
                    return False
                if not len(self.registry):
                    _respond_json(wfile, 503, {"status": "empty"})
                    return True
                _respond_json(
                    wfile,
                    200,
                    {"status": "ready", "models": self.registry.names()},
                )
                return True
            if path == "/v1/models":
                self._require(method, "GET")
                _respond_json(wfile, 200, {"models": self.registry.models()})
                return True
            if path == "/metrics":
                self._require(method, "GET")
                _respond(
                    wfile,
                    200,
                    self._metrics_text().encode("utf-8"),
                    content_type="text/plain; version=0.0.4",
                )
                return True
            name, streaming = self._parse_predict_path(path)
            self._require(method, "POST")
            if self._draining.is_set():
                raise HttpError(
                    503,
                    "Draining",
                    "server is draining; no new requests",
                    reason="draining",
                )
            payload = self._parse_json_body(body)
            if streaming:
                return self._predict_stream(name, payload, wfile)
            _respond_json(wfile, 200, self._predict_unary(name, payload))
            return True
        except Exception as exc:  # noqa: BLE001 - typed mapping below
            if isinstance(exc, ConnectionError):
                raise
            status, _ = error_response(exc)
            if status >= 500 and not isinstance(
                exc, (ReproError, TimeoutError, FuturesTimeoutError)
            ):
                logger.exception("http: %s %s failed", method, path)
            _respond_error(wfile, exc)
            return True

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(
                405, "MethodNotAllowed", f"use {expected}, not {method}"
            )

    @staticmethod
    def _parse_predict_path(path: str) -> tuple[str, bool]:
        parts = path.strip("/").split("/")
        if len(parts) >= 4 and parts[0] == "v1" and parts[1] == "models":
            if parts[3] == "predict" and len(parts) == 4:
                return parts[2], False
            if parts[3] == "predict" and len(parts) == 5 and parts[4] == "stream":
                return parts[2], True
        raise HttpError(404, "NotFound", f"no route for {path}")

    @staticmethod
    def _parse_json_body(body: bytes) -> dict:
        if not body:
            raise HttpError(
                400, "BadRequest", "empty request body", reason="malformed_json"
            )
        try:
            payload = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(
                400,
                "BadRequest",
                f"request body is not valid JSON ({exc})",
                reason="malformed_json",
            ) from exc
        if not isinstance(payload, dict):
            raise HttpError(
                400,
                "BadRequest",
                "request body must be a JSON object",
                reason="malformed_json",
            )
        return payload

    # -- prediction ------------------------------------------------------------

    @staticmethod
    def _parse_predict_payload(
        payload: dict,
    ) -> tuple[np.ndarray, PredictOptions | None]:
        unknown = set(payload) - {"images", "options"}
        if unknown:
            raise HttpError(
                400,
                "BadRequest",
                f"unknown request fields {sorted(unknown)}",
                reason="bad_request_fields",
            )
        if "images" not in payload:
            raise HttpError(
                400,
                "BadRequest",
                'request needs an "images" field',
                reason="missing_images",
            )
        try:
            images = np.asarray(payload["images"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise HttpError(
                400,
                "BadRequest",
                f"images are not a numeric array ({exc})",
                reason="bad_images",
            ) from exc
        if images.size == 0:
            raise HttpError(
                400, "BadRequest", "images are empty", reason="bad_images"
            )
        raw_options = payload.get("options")
        if raw_options is None:
            return images, None
        if not isinstance(raw_options, dict):
            raise HttpError(
                400,
                "BadRequest",
                '"options" must be a JSON object',
                reason="bad_options",
            )
        unknown = set(raw_options) - set(_OPTION_KEYS)
        if unknown:
            raise HttpError(
                400,
                "BadRequest",
                f"unknown options {sorted(unknown)} "
                f"(known: {list(_OPTION_KEYS)})",
                reason="bad_options",
            )
        fields = dict(raw_options)
        if fields.get("checkpoints") is not None:
            try:
                fields["checkpoints"] = tuple(
                    int(c) for c in fields["checkpoints"]
                )
            except (TypeError, ValueError) as exc:
                raise HttpError(
                    400,
                    "BadRequest",
                    f"checkpoints are not an integer list ({exc})",
                    reason="bad_options",
                ) from exc
        try:
            options = PredictOptions(**fields)
        except (ConfigurationError, TypeError, ValueError) as exc:
            raise HttpError(
                400,
                "BadRequest",
                f"invalid options: {exc}",
                reason="bad_options",
            ) from exc
        return images, options

    def _timeout_for(self, options: PredictOptions | None) -> float:
        timeout = self.config.request_timeout_s
        if options is not None and options.deadline_ms is not None:
            budget = (
                options.deadline_ms + self.config.deadline_grace_ms
            ) / 1000.0
            timeout = min(timeout, budget)
        return timeout

    def _submit(self, name: str, images, options):
        """Submit one request; returns the pool that took it and its answer.

        A server-side timeout cancels the request on that same pool: after
        a hot reload the registry's current pool is another one.
        """
        pool, future = self.registry.submit(name, images, options)
        timeout = self._timeout_for(options)
        try:
            response = future.result(timeout)
        except FuturesTimeoutError:
            with contextlib.suppress(Exception):
                pool.cancel(future)
            raise HttpError(
                504,
                "DeadlineExceeded",
                f"request exceeded its {timeout * 1000:.0f} ms budget",
                reason="deadline",
            ) from None
        return pool, response

    def _predict_unary(self, name: str, payload: dict) -> dict:
        images, options = self._parse_predict_payload(payload)
        pool, response = self._submit(name, images, options)
        return {
            "model": name,
            "generation": pool.generation,
            "scores": response.scores.tolist(),
            "predictions": response.predictions.tolist(),
            "exit_checkpoints": response.exit_checkpoints.tolist(),
            "cached": response.cached.tolist(),
            "stream_length": response.stream_length,
            "latency_ms": response.latency_seconds * 1000.0,
            "degraded": response.degraded,
        }

    def _predict_stream(self, name, payload, wfile) -> bool:
        """SSE stream of one request's checkpoints; always closes the
        connection when done (the stream body is EOF-delimited chunked
        encoding, so reuse is not worth the bookkeeping)."""
        images, options = self._parse_predict_payload(payload)
        # Requests the model can never serve are a 4xx, not an event:
        # an unknown name (404) or a schedule past its stream (400).
        info = self.registry.info(name)
        if options is not None:
            options.resolve(info.stream_length)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        wfile.write(head.encode("latin-1"))
        try:
            pool, response = self._submit(name, images, options)
        except Exception as exc:  # noqa: BLE001 - typed error event
            if isinstance(exc, ConnectionError):
                raise
            status, payload = error_response(exc)
            if status >= 500 and not isinstance(exc, ReproError):
                logger.exception("http: stream for %r failed", name)
            payload["kind"] = "error"
            self._sse_event(wfile, payload)
            self._end_chunks(wfile)
            return False
        points = response.checkpoints
        last = len(points) - 1
        exit_index = np.searchsorted(points, response.exit_checkpoints)
        for k in range(int(exit_index.max()) + 1):
            members = np.flatnonzero(exit_index >= k)
            scores = response.checkpoint_scores[k, members]
            exited = members[exit_index[members] == k]
            if k == last:
                exited = members[:0]  # the final checkpoint is no exit
            self._sse_event(
                wfile,
                {
                    "kind": "checkpoint",
                    "index": k,
                    "checkpoint": int(points[k]),
                    "images": members.tolist(),
                    "scores": scores.tolist(),
                    "predictions": np.argmax(scores, axis=-1).tolist(),
                    "cached": response.cached[members].tolist(),
                    "exited": exited.tolist(),
                },
            )
        self._sse_event(
            wfile,
            {
                "kind": "done",
                "reason": (
                    "early_exit" if exit_index.max() < last else "complete"
                ),
                "model": name,
                "generation": pool.generation,
                "scores": response.scores.tolist(),
                "predictions": response.predictions.tolist(),
                "exit_checkpoints": response.exit_checkpoints.tolist(),
                "evaluated": [True] * len(exit_index),
                "stream_length": int(points[-1]),
                "latency_ms": response.latency_seconds * 1000.0,
                "degraded": response.degraded,
            },
        )
        self._end_chunks(wfile)
        return False

    @staticmethod
    def _sse_event(wfile, payload: dict) -> None:
        data = b"data: " + _json_bytes(payload) + b"\n\n"
        wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")

    @staticmethod
    def _end_chunks(wfile) -> None:
        wfile.write(b"0\r\n\r\n")

    # -- metrics ---------------------------------------------------------------

    def _metrics_text(self) -> str:
        from repro.obs import registry_prometheus_text

        return registry_prometheus_text(self.registry.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScHttpServer(host={self.host!r}, port={self.port})"


class _Handler(http.server.BaseHTTPRequestHandler):
    """One connection: the standard library parses each request head,
    :class:`ScHttpServer` routes it."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.server.app._opened(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.app._closed(self.connection)

    def handle_one_request(self) -> None:
        if not self.server.app._await_request(self.connection, self.rfile):
            self.close_connection = True
            return
        super().handle_one_request()

    def __getattr__(self, name: str):
        # Every method reaches the router: a wrong one answers 405 and an
        # unknown path 404, never the standard library's 501.
        if name.startswith("do_"):
            return self._serve
        raise AttributeError(name)

    def _serve(self) -> None:
        app = self.server.app
        try:
            body = self._read_body(app.config.max_body_bytes)
        except HttpError as exc:
            _respond_error(self.wfile, exc, keep_alive=False)
            self.close_connection = True
            return
        path = self.path.split("?", 1)[0]
        keep = app._dispatch(self.command.upper(), path, body, self.wfile)
        self.close_connection = not keep

    def _read_body(self, limit: int) -> bytes:
        """Check the parsed head against the wire contract; read the body."""
        if not self.request_version.startswith("HTTP/1."):
            raise HttpError(
                400,
                "BadRequest",
                f"malformed request line {self.requestline!r}",
            )
        headers = self.headers
        if headers.defects:
            raise HttpError(400, "BadRequest", "malformed header line")
        head_bytes = len(self.raw_requestline) + sum(
            len(name) + len(value) + 4 for name, value in headers.items()
        )
        if head_bytes > _MAX_HEAD_BYTES:
            raise HttpError(431, "BadRequest", "request head too large")
        length_header = headers.get("content-length")
        if length_header is None:
            if "chunked" in headers.get("transfer-encoding", "").lower():
                raise HttpError(
                    411, "BadRequest", "chunked request bodies not supported"
                )
            return b""
        try:
            length = int(length_header)
            if length < 0:
                raise ValueError
        except ValueError:
            raise HttpError(400, "BadRequest", "bad Content-Length") from None
        if length > limit:
            # Drain modest overshoots before answering so the close is
            # clean (unread bytes on close can RST the socket under the
            # client's 413 response); give up on reading truly huge bodies.
            # The drain holds one piece at a time, never the whole body.
            remaining = length if length <= 8 * limit else 0
            while remaining > 0:
                piece = self.rfile.read(min(remaining, _DRAIN_PIECE_BYTES))
                if not piece:
                    break
                remaining -= len(piece)
            raise HttpError(
                413,
                "BadRequest",
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit",
                reason="oversized_body",
            )
        if not length:
            return b""
        if headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return self.rfile.read(length)

    def handle_expect_100(self) -> bool:
        return True  # ``100 Continue`` goes out after the size check

    def send_error(self, code, message=None, explain=None) -> None:
        """Heads the standard library refuses get the typed JSON body; its
        414 (request line too long) is a 431 and its 505 a 400."""
        status = {414: 431, 505: 400}.get(code, code)
        error = HttpError(status, "BadRequest", message or "malformed head")
        _respond_error(self.wfile, error, keep_alive=False)
        self.close_connection = True

    def log_message(self, format, *args) -> None:
        pass  # no access log on stderr


class _Listener(socketserver.ThreadingTCPServer):
    """Threaded listener: one daemon thread per connection.

    Not :class:`http.server.HTTPServer`, whose ``server_bind`` resolves
    the host's FQDN and never uses it.  Its threads are not joined on
    close: :meth:`ScHttpServer.close` bounds the drain itself.
    """

    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True
    # A burst of connects (each SSE stream opens one) queues, not drops.
    request_queue_size = 100

    def __init__(self, app: ScHttpServer) -> None:
        self.app = app
        host, port = app.config.host, app.config.port
        self.address_family = socket.getaddrinfo(
            host, port, type=socket.SOCK_STREAM
        )[0][0]
        super().__init__((host, port), _Handler)

    def handle_error(self, request, client_address) -> None:
        if not isinstance(sys.exc_info()[1], ConnectionError):
            logger.exception("http: connection handler failed")
