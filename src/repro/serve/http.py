"""Async HTTP/JSON front end streaming progressive stochastic-computing results.

The network surface over the serving stack: a stdlib-``asyncio`` HTTP/1.1
server (no web framework, no new dependency) fronting a
:class:`~repro.serve.registry.ModelRegistry` of artifact-backed replica
pools -- in-process :class:`~repro.serve.ScInferenceService` pools by
default, multi-process :class:`~repro.serve.FleetRouter` pools in fleet
mode.

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
through open connections: keep-alive loops finish the request in flight
and close, and an open stream finishes its one evaluation.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import logging
import threading

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
    elif isinstance(exc, (TimeoutError, asyncio.TimeoutError)):
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


class ScHttpServer:
    """Asyncio HTTP front end over a :class:`ModelRegistry`.

    Two hosting modes:

    * **async-native** -- ``await server.start()`` inside a running event
      loop, later ``await server.drain()`` (the CLI's signal-driven
      path);
    * **background thread** -- :meth:`start_background` spins a private
      event loop in a daemon thread and returns once the port is bound;
      :meth:`close` drains and joins it (the tests' and benchmarks'
      path).  Also usable as a context manager.

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
        self._server: asyncio.base_events.Server | None = None
        self._scan_task: asyncio.Task | None = None
        self._connections: set[asyncio.Task] = set()
        self._draining = asyncio.Event()
        self._thread: threading.Thread | None = None
        self._thread_loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "ScHttpServer":
        """Bind the listener; ``self.port`` holds the bound port after."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        if self.config.reload_interval_s:
            self._scan_task = asyncio.create_task(self._scan_loop())
        logger.info(
            "http: serving %d model(s) on %s:%d",
            len(self.registry),
            self.host,
            self.port,
        )
        return self

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish open connections.

        Sets the draining flag (keep-alive loops close after the request
        in flight; open streams finish their one evaluation), closes the
        listener, then waits up to
        ``drain_timeout_s`` for connection handlers before cancelling
        stragglers.
        """
        self._draining.set()
        if self._scan_task is not None:
            self._scan_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._scan_task
            self._scan_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        tasks = [
            t
            for t in self._connections
            if t is not asyncio.current_task() and not t.done()
        ]
        if tasks:
            done, pending = await asyncio.wait(
                tasks, timeout=self.config.drain_timeout_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
            logger.info(
                "http: drained %d connection(s), cancelled %d",
                len(done),
                len(pending),
            )

    def start_background(self) -> "ScHttpServer":
        """Run the server in a private event loop on a daemon thread.

        Blocks until the port is bound (or startup failed, in which case
        the startup exception is re-raised here).
        """
        if self._thread is not None:
            raise ConfigurationError("server already started")
        started = threading.Event()
        failures: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._thread_loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # noqa: BLE001 - reraised in caller
                failures.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-http", daemon=True
        )
        self._thread.start()
        started.wait(timeout=60.0)
        if failures:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise failures[0]
        return self

    def close(self) -> None:
        """Drain and stop a :meth:`start_background` server."""
        thread, loop = self._thread, self._thread_loop
        if thread is None or loop is None:
            return
        self._thread = None
        try:
            future = asyncio.run_coroutine_threadsafe(self.drain(), loop)
            future.result(timeout=self.config.drain_timeout_s + 10.0)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)

    def __enter__(self) -> "ScHttpServer":
        return self.start_background()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    async def _scan_loop(self) -> None:
        """Poll the registry for artifact changes (hot reload)."""
        loop = asyncio.get_running_loop()
        while not self._draining.is_set():
            await asyncio.sleep(self.config.reload_interval_s)
            try:
                changes = await loop.run_in_executor(None, self.registry.scan)
            except Exception:  # pragma: no cover - scan must never kill serve
                logger.exception("http: registry scan failed")
                continue
            if any(changes.values()):
                logger.info("http: registry scan applied %s", changes)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        except asyncio.CancelledError:  # drain timeout fired
            raise
        except Exception:  # pragma: no cover - handler bug backstop
            logger.exception("http: connection handler failed")
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            request = await self._read_request(reader, writer)
            if request is None:
                return
            method, path, headers, body = request
            keep_alive = await self._dispatch(
                method, path, headers, body, writer
            )
            if not keep_alive or self._draining.is_set():
                return

    async def _read_request(self, reader, writer):
        """One request head + body, racing the drain flag while idle.

        Returns ``None`` on clean close (client EOF, drain, or an error
        already answered on ``writer``).
        """
        read = asyncio.ensure_future(reader.readuntil(b"\r\n\r\n"))
        drain_wait = asyncio.ensure_future(self._draining.wait())
        try:
            await asyncio.wait(
                {read, drain_wait}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            drain_wait.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await drain_wait
        if not read.done():
            # Draining with no request in flight on this connection.
            read.cancel()
            with contextlib.suppress(
                asyncio.CancelledError, asyncio.IncompleteReadError
            ):
                await read
            return None
        try:
            head = read.result()
        except asyncio.IncompleteReadError:
            return None  # client closed between requests
        except asyncio.LimitOverrunError:
            await self._respond_error(
                writer,
                HttpError(431, "BadRequest", "request head too large"),
                keep_alive=False,
            )
            return None
        try:
            method, path, headers = self._parse_head(head)
        except HttpError as exc:
            await self._respond_error(writer, exc, keep_alive=False)
            return None
        body = b""
        length_header = headers.get("content-length")
        if length_header is not None:
            try:
                length = int(length_header)
                if length < 0:
                    raise ValueError
            except ValueError:
                await self._respond_error(
                    writer,
                    HttpError(400, "BadRequest", "bad Content-Length"),
                    keep_alive=False,
                )
                return None
            if length > self.config.max_body_bytes:
                # Drain modest overshoots before answering so the close
                # is clean (unread bytes on close can RST the socket
                # under the client's 413 response); give up on reading
                # truly huge bodies.
                if length <= 8 * self.config.max_body_bytes:
                    await reader.readexactly(length)
                await self._respond_error(
                    writer,
                    HttpError(
                        413,
                        "BadRequest",
                        f"request body of {length} bytes exceeds the "
                        f"{self.config.max_body_bytes}-byte limit",
                        reason="oversized_body",
                    ),
                    keep_alive=False,
                )
                return None
            if length:
                if headers.get("expect", "").lower() == "100-continue":
                    writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                    await writer.drain()
                body = await reader.readexactly(length)
        elif "chunked" in headers.get("transfer-encoding", "").lower():
            await self._respond_error(
                writer,
                HttpError(
                    411, "BadRequest", "chunked request bodies not supported"
                ),
                keep_alive=False,
            )
            return None
        return method, path, headers, body

    @staticmethod
    def _parse_head(blob: bytes):
        try:
            text = blob.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise HttpError(400, "BadRequest", "undecodable head") from exc
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HttpError(
                400, "BadRequest", f"malformed request line {lines[0]!r}"
            )
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise HttpError(
                    400, "BadRequest", f"malformed header line {line!r}"
                )
            headers[name.strip().lower()] = value.strip()
        path = target.split("?", 1)[0]
        return method, path, headers

    # -- responses -------------------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
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
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _respond_json(
        self, writer, status: int, payload: dict, keep_alive: bool = True
    ) -> None:
        await self._respond(
            writer, status, _json_bytes(payload), keep_alive=keep_alive
        )

    async def _respond_error(
        self, writer, exc: BaseException, keep_alive: bool = True
    ) -> None:
        status, payload = error_response(exc)
        await self._respond_json(writer, status, payload, keep_alive=keep_alive)

    # -- routing ---------------------------------------------------------------

    async def _dispatch(self, method, path, headers, body, writer) -> bool:
        """Route one request; returns whether to keep the connection."""
        try:
            if path == "/healthz":
                self._require(method, "GET")
                await self._respond_json(
                    writer,
                    200,
                    {"status": "ok", "draining": self._draining.is_set()},
                )
                return True
            if path == "/readyz":
                self._require(method, "GET")
                if self._draining.is_set():
                    await self._respond_json(
                        writer, 503, {"status": "draining"}, keep_alive=False
                    )
                    return False
                if not len(self.registry):
                    await self._respond_json(writer, 503, {"status": "empty"})
                    return True
                await self._respond_json(
                    writer,
                    200,
                    {"status": "ready", "models": self.registry.names()},
                )
                return True
            if path == "/v1/models":
                self._require(method, "GET")
                loop = asyncio.get_running_loop()
                models = await loop.run_in_executor(None, self.registry.models)
                await self._respond_json(writer, 200, {"models": models})
                return True
            if path == "/metrics":
                self._require(method, "GET")
                text = await self._metrics_text()
                await self._respond(
                    writer,
                    200,
                    text.encode("utf-8"),
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
                return await self._predict_stream(name, payload, writer)
            response = await self._predict_unary(name, payload)
            await self._respond_json(writer, 200, response)
            return True
        except Exception as exc:  # noqa: BLE001 - typed mapping below
            if isinstance(
                exc,
                (
                    ConnectionResetError,
                    BrokenPipeError,
                    asyncio.IncompleteReadError,
                ),
            ):
                raise
            status, _ = error_response(exc)
            if status >= 500 and not isinstance(
                exc, (ReproError, TimeoutError, asyncio.TimeoutError)
            ):
                logger.exception("http: %s %s failed", method, path)
            await self._respond_error(writer, exc)
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

    async def _submit(self, name: str, images, options):
        """Submit one request; returns the pool that took it and its answer.

        A server-side timeout cancels the request on that same pool: after
        a hot reload the registry's current pool is another one.
        """
        loop = asyncio.get_running_loop()
        pool, future = await loop.run_in_executor(
            None,
            functools.partial(self.registry.submit, name, images, options),
        )
        timeout = self._timeout_for(options)
        try:
            response = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout
            )
        except (TimeoutError, asyncio.TimeoutError):
            with contextlib.suppress(Exception):
                pool.cancel(future)
            raise HttpError(
                504,
                "DeadlineExceeded",
                f"request exceeded its {timeout * 1000:.0f} ms budget",
                reason="deadline",
            ) from None
        return pool, response

    async def _predict_unary(self, name: str, payload: dict) -> dict:
        images, options = self._parse_predict_payload(payload)
        pool, response = await self._submit(name, images, options)
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

    async def _predict_stream(self, name, payload, writer) -> bool:
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
        writer.write(head.encode("latin-1"))
        await writer.drain()
        try:
            pool, response = await self._submit(name, images, options)
        except Exception as exc:  # noqa: BLE001 - typed error event
            if isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                raise
            status, payload = error_response(exc)
            if status >= 500 and not isinstance(exc, ReproError):
                logger.exception("http: stream for %r failed", name)
            payload["kind"] = "error"
            await self._sse_event(writer, payload)
            await self._end_chunks(writer)
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
            await self._sse_event(
                writer,
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
        await self._sse_event(
            writer,
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
        await self._end_chunks(writer)
        return False

    @staticmethod
    async def _sse_event(writer: asyncio.StreamWriter, payload: dict) -> None:
        data = b"data: " + _json_bytes(payload) + b"\n\n"
        writer.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        await writer.drain()

    @staticmethod
    async def _end_chunks(writer: asyncio.StreamWriter) -> None:
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- metrics ---------------------------------------------------------------

    async def _metrics_text(self) -> str:
        from repro.obs import registry_prometheus_text

        loop = asyncio.get_running_loop()
        snapshots = await loop.run_in_executor(None, self.registry.snapshot)
        return registry_prometheus_text(snapshots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScHttpServer(host={self.host!r}, port={self.port})"
