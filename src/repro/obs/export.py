"""Metrics export: Prometheus text exposition and a JSONL event log.

Two sinks over the same observability data:

* :func:`prometheus_text` renders a service snapshot
  (:meth:`repro.serve.ScInferenceService.snapshot`, a superset of the
  plain :meth:`~repro.serve.metrics.ServiceMetrics.snapshot` dict) in the
  Prometheus text exposition format (version 0.0.4): ``# HELP`` /
  ``# TYPE`` comment pairs followed by samples, histograms as cumulative
  ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.
  :func:`validate_exposition` parses the text back and checks the format
  invariants -- the golden-parse guard of the CI ``smoke`` job.
* :class:`JsonlEventLog` appends structured JSON lines (sampled traces,
  fault events, mirrored log records) to a file; its
  :meth:`~JsonlEventLog.logging_handler` bridges the stdlib ``repro``
  package logger into the same file, so replica restarts, fleet worker
  deaths and overload degradations land in one machine-readable stream.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from pathlib import Path

__all__ = [
    "prometheus_text",
    "fleet_prometheus_text",
    "registry_prometheus_text",
    "validate_exposition",
    "JsonlEventLog",
]


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    return repr(value)


class _Writer:
    """Accumulates exposition lines with HELP/TYPE headers per family."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, value: float, labels: dict | None = None
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(val)}"'
                for key, val in labels.items()
            )
            self.lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
        else:
            self.lines.append(f"{name} {_format_value(value)}")

    def counter(
        self, name: str, value: float, help_text: str
    ) -> None:
        self.family(name, "counter", help_text)
        self.sample(name, value)

    def gauge(self, name: str, value: float, help_text: str) -> None:
        self.family(name, "gauge", help_text)
        self.sample(name, value)

    def histogram(self, name: str, hist: dict, help_text: str) -> None:
        """Render a ``{"le", "counts", "sum", "count"}`` histogram.

        ``le`` holds the finite upper bounds; ``counts`` the per-bucket
        (non-cumulative) observation counts with one extra overflow
        bucket.  Prometheus buckets are cumulative and end at ``+Inf``.
        """
        self.family(name, "histogram", help_text)
        cumulative = 0
        bounds = list(hist["le"]) + [math.inf]
        for bound, count in zip(bounds, hist["counts"]):
            cumulative += int(count)
            self.sample(
                f"{name}_bucket",
                cumulative,
                {"le": _format_value(bound)},
            )
        self.sample(f"{name}_sum", hist["sum"])
        self.sample(f"{name}_count", hist["count"])

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a service snapshot in the Prometheus text exposition format.

    Accepts both the plain :class:`~repro.serve.metrics.ServiceMetrics`
    snapshot and the service-level superset
    (:meth:`~repro.serve.ScInferenceService.snapshot`) carrying
    ``kernels`` / ``workspaces`` / ``tracing`` sections; absent sections
    are simply not rendered.

    Args:
        snapshot: the snapshot dict.
        prefix: metric-name prefix (default ``repro``).

    Returns:
        Exposition text (one trailing newline), parseable by
        :func:`validate_exposition`.
    """
    w = _Writer()
    w.counter(
        f"{prefix}_requests_total",
        snapshot.get("requests", 0),
        "Completed inference requests.",
    )
    w.counter(
        f"{prefix}_images_total",
        snapshot.get("images", 0),
        "Images answered (computed + cache hits).",
    )
    w.counter(
        f"{prefix}_cache_hits_total",
        snapshot.get("cache_hits", 0),
        "Images answered from the LRU result cache.",
    )
    w.counter(
        f"{prefix}_batches_total",
        snapshot.get("batches", 0),
        "Merged micro-batches dispatched to workers.",
    )
    w.gauge(
        f"{prefix}_cache_hit_rate",
        snapshot.get("cache_hit_rate", 0.0),
        "Fraction of images answered from the cache.",
    )
    w.gauge(
        f"{prefix}_mean_batch_size",
        snapshot.get("mean_batch_size", 0.0),
        "Mean images per merged micro-batch (sliding window).",
    )
    throughput = snapshot.get("throughput_images_per_sec")
    if throughput is not None:
        w.gauge(
            f"{prefix}_throughput_images_per_sec",
            throughput,
            "Images per second over the completion window.",
        )
    mean_exit = snapshot.get("mean_exit_checkpoint")
    if mean_exit is not None:
        w.gauge(
            f"{prefix}_mean_exit_checkpoint",
            mean_exit,
            "Mean early-exit stream-cycle checkpoint.",
        )
    reduction = snapshot.get("cycle_reduction")
    if reduction is not None:
        w.gauge(
            f"{prefix}_cycle_reduction",
            reduction,
            "Mean stream-cycle reduction from progressive early exit.",
        )
    latency = snapshot.get("latency_ms")
    if latency:
        w.family(
            f"{prefix}_latency_ms",
            "summary",
            "Request latency quantiles over the sliding window (ms).",
        )
        for quantile in ("p50", "p95", "p99"):
            w.sample(
                f"{prefix}_latency_ms",
                latency[quantile],
                {"quantile": f"0.{quantile[1:]}"},
            )
        w.gauge(
            f"{prefix}_latency_ms_mean",
            latency["mean"],
            "Mean request latency over the sliding window (ms).",
        )
    for key, help_text in (
        ("queue_time_ms", "Submit-to-execution queueing time (ms)."),
        ("service_time_ms", "Execution-to-response service time (ms)."),
    ):
        series = snapshot.get(key)
        if series and series.get("histogram"):
            w.histogram(f"{prefix}_{key}", series["histogram"], help_text)
    faults = snapshot.get("faults")
    if faults:
        shed = {k: v for k, v in faults["shed"].items() if k != "total"}
        w.family(
            f"{prefix}_shed_requests_total",
            "counter",
            "Requests rejected by admission control, by reason.",
        )
        if shed:
            for reason, count in sorted(shed.items()):
                w.sample(
                    f"{prefix}_shed_requests_total",
                    count,
                    {"reason": reason},
                )
        else:
            w.sample(
                f"{prefix}_shed_requests_total", 0, {"reason": "none"}
            )
        w.counter(
            f"{prefix}_degraded_requests_total",
            faults["degraded_requests"],
            "Requests answered from an overload-truncated schedule.",
        )
        w.counter(
            f"{prefix}_batch_retries_total",
            faults["retries"],
            "Merged-batch buckets re-executed after a replica failure.",
        )
        w.counter(
            f"{prefix}_replica_restarts_total",
            faults["restarts"],
            "Backend replicas rebuilt by the supervision path.",
        )
        w.counter(
            f"{prefix}_failed_requests_total",
            faults["failed_requests"],
            "Requests resolved with a typed inference error.",
        )
        w.counter(
            f"{prefix}_cancelled_requests_total",
            faults["cancelled_requests"],
            "Requests cancelled before a worker picked them up.",
        )
    kernels = snapshot.get("kernels")
    if kernels:
        w.family(
            f"{prefix}_kernel_calls_total",
            "counter",
            "Packed-data-plane kernel invocations by kernel and tier.",
        )
        for kernel, tiers in sorted(kernels.items()):
            for tier, cell in sorted(tiers.items()):
                w.sample(
                    f"{prefix}_kernel_calls_total",
                    cell["calls"],
                    {"kernel": kernel, "tier": tier},
                )
        w.family(
            f"{prefix}_kernel_seconds_total",
            "counter",
            "Wall seconds spent inside kernels by kernel and tier.",
        )
        for kernel, tiers in sorted(kernels.items()):
            for tier, cell in sorted(tiers.items()):
                w.sample(
                    f"{prefix}_kernel_seconds_total",
                    cell["seconds"],
                    {"kernel": kernel, "tier": tier},
                )
        w.family(
            f"{prefix}_kernel_bytes_total",
            "counter",
            "Output bytes produced by kernels by kernel and tier.",
        )
        for kernel, tiers in sorted(kernels.items()):
            for tier, cell in sorted(tiers.items()):
                w.sample(
                    f"{prefix}_kernel_bytes_total",
                    cell["bytes"],
                    {"kernel": kernel, "tier": tier},
                )
    workspaces = snapshot.get("workspaces")
    if workspaces:
        w.family(
            f"{prefix}_workspace_bytes",
            "gauge",
            "Bytes currently retained by each replica's buffer arena.",
        )
        for entry in workspaces:
            w.sample(
                f"{prefix}_workspace_bytes",
                entry["nbytes"],
                {"worker": entry["worker"]},
            )
        w.family(
            f"{prefix}_workspace_peak_bytes",
            "gauge",
            "High-water arena bytes per replica.",
        )
        for entry in workspaces:
            w.sample(
                f"{prefix}_workspace_peak_bytes",
                entry["peak_nbytes"],
                {"worker": entry["worker"]},
            )
        w.family(
            f"{prefix}_workspace_buffers",
            "gauge",
            "Live buffers in each replica's arena.",
        )
        for entry in workspaces:
            w.sample(
                f"{prefix}_workspace_buffers",
                entry["buffers"],
                {"worker": entry["worker"]},
            )
    tracing = snapshot.get("tracing")
    if tracing:
        w.gauge(
            f"{prefix}_trace_sample_rate",
            tracing["sample_rate"],
            "Configured request-trace sampling rate.",
        )
        w.counter(
            f"{prefix}_traces_sampled_total",
            tracing["sampled"],
            "Requests that carried a trace.",
        )
        w.gauge(
            f"{prefix}_traces_buffered",
            tracing["buffered"],
            "Completed traces currently in the ring buffer.",
        )
    return w.text()


def fleet_prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a fleet snapshot as one exposition with a ``worker`` label.

    Accepts :meth:`repro.serve.fleet.FleetRouter.snapshot` output:
    ``{"fleet": <router counters>, "workers": {slot: <service snapshot
    or None>}}``.  Router-level supervision counters become
    ``{prefix}_fleet_*`` families; the headline series of every live
    worker's embedded-service snapshot are re-emitted under a
    ``worker="<slot>"`` label so one scrape shows the whole fleet.
    Workers that did not answer the snapshot RPC (dead, restarting)
    appear only in ``{prefix}_fleet_worker_up`` as ``0``.

    Returns:
        Exposition text parseable by :func:`validate_exposition`.
    """
    w = _Writer()
    fleet = snapshot.get("fleet") or {}
    for key, help_text in (
        ("submitted", "Requests admitted by the fleet router."),
        ("completed", "Requests resolved with a successful response."),
        ("failed", "Requests resolved with a worker-side inference error."),
        ("shed", "Requests shed by admission control (router or worker)."),
        ("router_errors", "Requests failed with a router-side FleetError."),
        ("retries", "Requests re-dispatched after their worker died."),
        ("hedges", "Speculative duplicate dispatches (tail hedging)."),
        ("hedge_wins", "Hedged requests whose duplicate answered first."),
        ("worker_deaths", "Worker processes lost to crash or hang."),
        ("restarts", "Supervision restarts charged to slot budgets."),
        ("replacements", "Planned rolling-restart worker replacements."),
    ):
        w.counter(
            f"{prefix}_fleet_{key}_total", fleet.get(key, 0), help_text
        )
    w.gauge(
        f"{prefix}_fleet_queue_depth",
        fleet.get("queue_depth", 0),
        "Requests waiting in the router dispatch queue.",
    )
    w.gauge(
        f"{prefix}_fleet_inflight",
        fleet.get("inflight", 0),
        "Admitted requests not yet resolved.",
    )
    w.gauge(
        f"{prefix}_fleet_workers_ready",
        fleet.get("workers_ready", 0),
        "Worker processes currently accepting dispatches.",
    )
    states = fleet.get("worker_states") or {}
    if states:
        w.family(
            f"{prefix}_fleet_worker_up",
            "gauge",
            "Per-slot worker liveness (1 = ready).",
        )
        for slot in sorted(states, key=str):
            w.sample(
                f"{prefix}_fleet_worker_up",
                1 if states[slot] == "ready" else 0,
                {"worker": slot, "state": states[slot]},
            )
    workers = {
        str(slot): snap
        for slot, snap in (snapshot.get("workers") or {}).items()
        if snap
    }
    if workers:
        for key, help_text in (
            ("requests", "Completed requests inside each worker's service."),
            ("images", "Images answered by each worker."),
            ("cache_hits", "Cache-served images per worker."),
            ("batches", "Merged micro-batches dispatched per worker."),
        ):
            w.family(
                f"{prefix}_worker_{key}_total",
                "counter",
                help_text,
            )
            for slot in sorted(workers, key=str):
                w.sample(
                    f"{prefix}_worker_{key}_total",
                    workers[slot].get(key, 0),
                    {"worker": slot},
                )
        for fault_key, name, help_text in (
            ("retries", "batch_retries", "In-process batch retries per worker."),
            (
                "restarts",
                "replica_restarts",
                "In-process replica restarts per worker.",
            ),
            (
                "failed_requests",
                "failed_requests",
                "Requests failed inside each worker's service.",
            ),
            (
                "degraded_requests",
                "degraded_requests",
                "Overload-degraded requests per worker.",
            ),
        ):
            w.family(
                f"{prefix}_worker_{name}_total",
                "counter",
                help_text,
            )
            for slot in sorted(workers, key=str):
                faults = workers[slot].get("faults") or {}
                w.sample(
                    f"{prefix}_worker_{name}_total",
                    faults.get(fault_key, 0),
                    {"worker": slot},
                )
        if any(workers[slot].get("latency_ms") for slot in workers):
            w.family(
                f"{prefix}_worker_latency_ms",
                "summary",
                "Per-worker request latency quantiles (ms).",
            )
            for slot in sorted(workers, key=str):
                latency = workers[slot].get("latency_ms")
                if not latency:
                    continue
                for quantile in ("p50", "p95", "p99"):
                    w.sample(
                        f"{prefix}_worker_latency_ms",
                        latency[quantile],
                        {"worker": slot, "quantile": f"0.{quantile[1:]}"},
                    )
    return w.text()


def _model_counter(entry: dict, key: str) -> float:
    """One headline counter of a registry pool entry, service or fleet.

    Service pools report the counter directly; fleet pools aggregate the
    per-worker embedded-service snapshots (``requests`` additionally
    falls back to the router's ``completed`` count when no worker
    answered the snapshot RPC).
    """
    inner = entry.get("snapshot") or {}
    if entry.get("kind") == "fleet":
        workers = [w for w in (inner.get("workers") or {}).values() if w]
        if workers:
            return sum(w.get(key, 0) for w in workers)
        if key == "requests":
            return (inner.get("fleet") or {}).get("completed", 0)
        return 0
    return inner.get(key, 0)


def registry_prometheus_text(snapshots: dict, prefix: str = "repro") -> str:
    """Render a multi-model registry snapshot with a ``model`` label.

    Accepts :meth:`repro.serve.registry.ModelRegistry.snapshot` output:
    ``{name: {"kind", "generation", "snapshot"} | None}`` (``None`` for
    catalog entries whose pool was never built).  Catalog-level gauges
    come first; the headline series of every live pool are re-emitted
    under a ``model="<name>"`` label, so one scrape covers every model a
    process serves.  Single-model processes keep the unlabeled
    :func:`prometheus_text` / :func:`fleet_prometheus_text` shape
    instead (the HTTP front end picks per scrape).

    Returns:
        Exposition text parseable by :func:`validate_exposition`.
    """
    w = _Writer()
    loaded = {name: snap for name, snap in snapshots.items() if snap}
    w.gauge(
        f"{prefix}_registry_models",
        len(snapshots),
        "Models in the serving catalog.",
    )
    w.gauge(
        f"{prefix}_registry_loaded",
        len(loaded),
        "Models with a live replica pool.",
    )
    if snapshots:
        w.family(
            f"{prefix}_model_up",
            "gauge",
            "Per-model pool liveness (1 = replica pool built).",
        )
        for name in sorted(snapshots, key=str):
            w.sample(
                f"{prefix}_model_up",
                1 if snapshots[name] else 0,
                {"model": name},
            )
    if not loaded:
        return w.text()
    w.family(
        f"{prefix}_model_generation",
        "gauge",
        "Pool generation of each model (bumps on hot reload).",
    )
    for name in sorted(loaded, key=str):
        w.sample(
            f"{prefix}_model_generation",
            loaded[name].get("generation", 0),
            {"model": name},
        )
    for key, help_text in (
        ("requests", "Completed requests per model."),
        ("images", "Images answered per model."),
        ("cache_hits", "Cache-served images per model."),
        ("batches", "Merged micro-batches dispatched per model."),
    ):
        w.family(f"{prefix}_model_{key}_total", "counter", help_text)
        for name in sorted(loaded, key=str):
            w.sample(
                f"{prefix}_model_{key}_total",
                _model_counter(loaded[name], key),
                {"model": name},
            )
    latencies = {
        name: (entry.get("snapshot") or {}).get("latency_ms")
        for name, entry in loaded.items()
        if entry.get("kind") != "fleet"
    }
    latencies = {name: lat for name, lat in latencies.items() if lat}
    if latencies:
        w.family(
            f"{prefix}_model_latency_ms",
            "summary",
            "Per-model request latency quantiles (ms).",
        )
        for name in sorted(latencies, key=str):
            for quantile in ("p50", "p95", "p99"):
                w.sample(
                    f"{prefix}_model_latency_ms",
                    latencies[name][quantile],
                    {"model": name, "quantile": f"0.{quantile[1:]}"},
                )
    return w.text()


def validate_exposition(text: str) -> dict[str, str]:
    """Parse Prometheus exposition text, checking the format invariants.

    Checks: every sample belongs to a declared ``# TYPE`` family (with
    the ``_bucket`` / ``_sum`` / ``_count`` suffixes allowed for
    histograms), values parse as floats, label syntax is well formed,
    histogram buckets are cumulative (non-decreasing) and end at
    ``le="+Inf"`` with the ``+Inf`` bucket equal to ``_count``.

    Args:
        text: exposition text (e.g. the output of
            :func:`prometheus_text` or a ``--metrics-file``).

    Returns:
        ``{family_name: type}`` for every declared family.

    Raises:
        ValueError: on the first format violation, naming the line.
    """
    families: dict[str, str] = {}
    bucket_state: dict[str, list] = {}  # family -> [last_le, last_cum]
    hist_counts: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(
                    f"line {lineno}: malformed comment {raw!r}"
                )
            if parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in (
                    "counter",
                    "gauge",
                    "histogram",
                    "summary",
                    "untyped",
                ):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                families[parts[2]] = kind
            continue
        # Sample line: name[{labels}] value [timestamp]
        if "{" in line:
            name, rest = line.split("{", 1)
            if "}" not in rest:
                raise ValueError(f"line {lineno}: unterminated labels")
            labels_text, value_text = rest.rsplit("}", 1)
            labels = _parse_labels(labels_text, lineno)
        else:
            pieces = line.split()
            if len(pieces) < 2:
                raise ValueError(f"line {lineno}: malformed sample {raw!r}")
            name, value_text = pieces[0], " ".join(pieces[1:])
            labels = {}
        name = name.strip()
        value_text = value_text.strip().split()[0]
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value {value_text!r}"
            ) from None
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and families.get(base) in ("histogram", "summary"):
                family = base
                break
        if family not in families:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE declaration"
            )
        if families[family] == "histogram":
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    raise ValueError(
                        f"line {lineno}: histogram bucket without 'le'"
                    )
                bound = math.inf if le == "+Inf" else float(le)
                state = bucket_state.setdefault(family, [-math.inf, -1.0])
                if bound <= state[0]:
                    raise ValueError(
                        f"line {lineno}: bucket bounds not increasing"
                    )
                if value < state[1]:
                    raise ValueError(
                        f"line {lineno}: bucket counts not cumulative"
                    )
                state[0], state[1] = bound, value
            elif name.endswith("_count"):
                hist_counts[family] = value
    for family, (last_le, last_cum) in bucket_state.items():
        if not math.isinf(last_le):
            raise ValueError(
                f"histogram {family!r} has no le=\"+Inf\" bucket"
            )
        count = hist_counts.get(family)
        if count is not None and count != last_cum:
            raise ValueError(
                f"histogram {family!r}: +Inf bucket {last_cum} != "
                f"_count {count}"
            )
    return families


def _parse_labels(labels_text: str, lineno: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    text = labels_text.strip()
    while text:
        if "=" not in text:
            raise ValueError(f"line {lineno}: malformed label in {text!r}")
        key, rest = text.split("=", 1)
        if not rest.startswith('"'):
            raise ValueError(f"line {lineno}: unquoted label value")
        value = []
        i = 1
        while i < len(rest):
            ch = rest[i]
            if ch == "\\" and i + 1 < len(rest):
                value.append(rest[i + 1])
                i += 2
                continue
            if ch == '"':
                break
            value.append(ch)
            i += 1
        else:
            raise ValueError(f"line {lineno}: unterminated label value")
        labels[key.strip()] = "".join(value)
        text = rest[i + 1 :].lstrip().lstrip(",").lstrip()
    return labels


class _EventLogHandler(logging.Handler):
    """Mirrors ``repro`` logger records into a :class:`JsonlEventLog`.

    Log calls may attach ``extra={"obs_event": {"kind": ..., ...}}`` to
    emit a structured event; records without it land as ``kind="log"``.
    """

    def __init__(self, log: "JsonlEventLog") -> None:
        super().__init__()
        self._log = log

    def emit(self, record: logging.LogRecord) -> None:  # pragma: no cover
        try:
            event = dict(getattr(record, "obs_event", None) or {})
            kind = event.pop("kind", "log")
            self._log.emit(
                kind,
                level=record.levelname,
                logger=record.name,
                message=record.getMessage(),
                **event,
            )
        except Exception:
            self.handleError(record)


class JsonlEventLog:
    """Append-only JSON-lines event sink (thread-safe).

    One line per event: ``{"ts": <unix seconds>, "kind": ..., ...}``.
    The serving layer writes sampled traces (``kind="trace"``) and the
    ``repro`` package logger's records (via :meth:`logging_handler`)
    into it; anything JSON-serialisable goes.

    Args:
        path: file to append to (parent directories are created).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = self.path.open("a", encoding="utf-8")
        self._closed = False

    def emit(self, kind: str, **fields: object) -> None:
        """Append one event line (silently dropped after close)."""
        payload = {"ts": time.time(), "kind": kind, **fields}
        line = json.dumps(payload, default=str)
        with self._lock:
            if self._closed:
                return
            self._file.write(line + "\n")
            self._file.flush()

    def logging_handler(self) -> logging.Handler:
        """A stdlib handler mirroring log records into this file."""
        return _EventLogHandler(self)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._file.close()

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
