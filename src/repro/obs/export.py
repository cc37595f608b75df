"""Metrics export: Prometheus text exposition and a JSONL event log.

Two sinks over the same observability data:

* :func:`prometheus_text` renders a service snapshot
  (:meth:`repro.serve.ScInferenceService.snapshot`, a superset of the
  plain :meth:`~repro.serve.metrics.ServiceMetrics.snapshot` dict) in the
  Prometheus text exposition format (version 0.0.4): each family's
  ``# HELP`` / ``# TYPE`` pair followed by all its samples, histograms as
  cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.  A
  fleet or registry exposition is the service's families under a
  ``worker`` or ``model`` label (nesting ``model`` -> ``worker`` ->
  ``replica``).  :func:`validate_exposition` parses the text back and
  checks the format invariants -- the golden-parse guard of the CI
  ``smoke`` job.
* :class:`JsonlEventLog` appends structured JSON lines to a file.  A
  service writes its own sampled traces and its fault and overload
  events (sheds, degradations, failed batches, replica restarts) into
  it directly, so each service's file holds that service's events only,
  whatever the level of the stdlib ``repro`` logger.
"""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path

__all__ = [
    "prometheus_text",
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
    """Collects metric families; :meth:`text` renders each as one group.

    ``families`` is ``{name: (kind, help_text, [(sample, labels, value)])}``
    with ``labels`` as ``(key, value)`` pairs in render order.
    """

    def __init__(self) -> None:
        self.families: dict[str, tuple[str, str, list]] = {}

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.families.setdefault(name, (kind, help_text, []))

    def sample(
        self, name: str, value: float, labels: dict | None = None
    ) -> None:
        # A histogram's _bucket / _sum / _count samples join its family.
        family = name if name in self.families else name.rsplit("_", 1)[0]
        self.families[family][2].append(
            (name, tuple((labels or {}).items()), value)
        )

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

    def include(self, other: "_Writer", key: str, value: object) -> None:
        """Merge ``other``'s families, ``key=value`` first in their labels."""
        for name, (kind, help_text, samples) in other.families.items():
            self.family(name, kind, help_text)
            self.families[name][2].extend(
                (sample, ((key, value),) + labels, val)
                for sample, labels, val in samples
            )

    def text(self) -> str:
        lines = []
        for name, (kind, help_text, samples) in self.families.items():
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for sample, labels, value in samples:
                if labels:
                    rendered = ",".join(
                        f'{key}="{_escape_label(val)}"'
                        for key, val in labels
                    )
                    sample = f"{sample}{{{rendered}}}"
                lines.append(f"{sample} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def prometheus_text(snapshot: dict) -> str:
    """Render a service or fleet snapshot in the Prometheus text format.

    Accepts both the plain :class:`~repro.serve.metrics.ServiceMetrics`
    snapshot and the service-level superset
    (:meth:`~repro.serve.ScInferenceService.snapshot`) carrying
    ``kernels`` / ``workspaces`` / ``tracing`` sections; absent sections
    are simply not rendered.  A :meth:`repro.serve.FleetRouter.snapshot`
    (recognised by its ``"fleet"`` key) renders as the router's
    ``repro_fleet_*`` families plus each live worker's service families
    under a ``worker="<slot>"`` label; a worker that did not answer the
    snapshot RPC (dead, restarting) is ``0`` in ``repro_fleet_worker_up``.

    Args:
        snapshot: the snapshot dict.

    Returns:
        Exposition text (one trailing newline), parseable by
        :func:`validate_exposition`.
    """
    return _pool_families(snapshot).text()


def _pool_families(snapshot: dict) -> _Writer:
    w = _Writer()
    if "fleet" in snapshot:
        _fleet_families(w, snapshot)
    else:
        _service_families(w, snapshot)
    return w


def _service_families(w: _Writer, snapshot: dict) -> None:
    w.counter(
        "repro_requests_total",
        snapshot.get("requests", 0),
        "Completed inference requests.",
    )
    w.counter(
        "repro_images_total",
        snapshot.get("images", 0),
        "Images answered (computed + cache hits).",
    )
    w.counter(
        "repro_cache_hits_total",
        snapshot.get("cache_hits", 0),
        "Images answered from the LRU result cache.",
    )
    w.counter(
        "repro_batches_total",
        snapshot.get("batches", 0),
        "Merged micro-batches taken by workers.",
    )
    w.gauge(
        "repro_cache_hit_rate",
        snapshot.get("cache_hit_rate", 0.0),
        "Fraction of images answered from the cache.",
    )
    w.gauge(
        "repro_mean_batch_size",
        snapshot.get("mean_batch_size", 0.0),
        "Mean images per merged micro-batch (sliding window).",
    )
    throughput = snapshot.get("throughput_images_per_sec")
    if throughput is not None:
        w.gauge(
            "repro_throughput_images_per_sec",
            throughput,
            "Images per second over the completion window.",
        )
    mean_exit = snapshot.get("mean_exit_checkpoint")
    if mean_exit is not None:
        w.gauge(
            "repro_mean_exit_checkpoint",
            mean_exit,
            "Mean early-exit stream-cycle checkpoint.",
        )
    reduction = snapshot.get("cycle_reduction")
    if reduction is not None:
        w.gauge(
            "repro_cycle_reduction",
            reduction,
            "Mean stream-cycle reduction from progressive early exit.",
        )
    latency = snapshot.get("latency_ms")
    if latency:
        w.family(
            "repro_latency_ms",
            "summary",
            "Request latency quantiles over the sliding window (ms).",
        )
        for quantile in ("p50", "p95", "p99"):
            w.sample(
                "repro_latency_ms",
                latency[quantile],
                {"quantile": f"0.{quantile[1:]}"},
            )
        w.gauge(
            "repro_latency_ms_mean",
            latency["mean"],
            "Mean request latency over the sliding window (ms).",
        )
    for key, help_text in (
        ("queue_time_ms", "Submit-to-execution queueing time (ms)."),
        ("service_time_ms", "Execution-to-response service time (ms)."),
    ):
        series = snapshot.get(key)
        if series and series.get("histogram"):
            w.histogram(f"repro_{key}", series["histogram"], help_text)
    faults = snapshot.get("faults")
    if faults:
        shed = {k: v for k, v in faults["shed"].items() if k != "total"}
        w.family(
            "repro_shed_requests_total",
            "counter",
            "Requests rejected by admission control, by reason.",
        )
        if shed:
            for reason, count in sorted(shed.items()):
                w.sample(
                    "repro_shed_requests_total",
                    count,
                    {"reason": reason},
                )
        else:
            w.sample(
                "repro_shed_requests_total", 0, {"reason": "none"}
            )
        w.counter(
            "repro_degraded_requests_total",
            faults["degraded_requests"],
            "Requests answered from an overload-truncated schedule.",
        )
        w.counter(
            "repro_batch_retries_total",
            faults["retries"],
            "Merged-batch buckets re-executed after a replica failure.",
        )
        w.counter(
            "repro_replica_restarts_total",
            faults["restarts"],
            "Backend replicas rebuilt by the supervision path.",
        )
        w.counter(
            "repro_failed_requests_total",
            faults["failed_requests"],
            "Requests resolved with a typed inference error.",
        )
        w.counter(
            "repro_cancelled_requests_total",
            faults["cancelled_requests"],
            "Requests cancelled before a worker picked them up.",
        )
    kernels = snapshot.get("kernels")
    if kernels:
        w.family(
            "repro_kernel_calls_total",
            "counter",
            "Packed-data-plane kernel invocations by kernel and tier.",
        )
        for kernel, tiers in sorted(kernels.items()):
            for tier, cell in sorted(tiers.items()):
                w.sample(
                    "repro_kernel_calls_total",
                    cell["calls"],
                    {"kernel": kernel, "tier": tier},
                )
        w.family(
            "repro_kernel_seconds_total",
            "counter",
            "Wall seconds spent inside kernels by kernel and tier.",
        )
        for kernel, tiers in sorted(kernels.items()):
            for tier, cell in sorted(tiers.items()):
                w.sample(
                    "repro_kernel_seconds_total",
                    cell["seconds"],
                    {"kernel": kernel, "tier": tier},
                )
        w.family(
            "repro_kernel_bytes_total",
            "counter",
            "Output bytes produced by kernels by kernel and tier.",
        )
        for kernel, tiers in sorted(kernels.items()):
            for tier, cell in sorted(tiers.items()):
                w.sample(
                    "repro_kernel_bytes_total",
                    cell["bytes"],
                    {"kernel": kernel, "tier": tier},
                )
    workspaces = snapshot.get("workspaces")
    if workspaces:
        w.family(
            "repro_workspace_bytes",
            "gauge",
            "Bytes currently retained by each replica's buffer arena.",
        )
        for entry in workspaces:
            w.sample(
                "repro_workspace_bytes",
                entry["nbytes"],
                {"replica": entry["worker"]},
            )
        w.family(
            "repro_workspace_peak_bytes",
            "gauge",
            "High-water arena bytes per replica.",
        )
        for entry in workspaces:
            w.sample(
                "repro_workspace_peak_bytes",
                entry["peak_nbytes"],
                {"replica": entry["worker"]},
            )
        w.family(
            "repro_workspace_buffers",
            "gauge",
            "Live buffers in each replica's arena.",
        )
        for entry in workspaces:
            w.sample(
                "repro_workspace_buffers",
                entry["buffers"],
                {"replica": entry["worker"]},
            )
    tracing = snapshot.get("tracing")
    if tracing:
        w.gauge(
            "repro_trace_sample_rate",
            tracing["sample_rate"],
            "Configured request-trace sampling rate.",
        )
        w.counter(
            "repro_traces_sampled_total",
            tracing["sampled"],
            "Requests that carried a trace.",
        )
        w.gauge(
            "repro_traces_buffered",
            tracing["buffered"],
            "Completed traces currently in the ring buffer.",
        )


def _fleet_families(w: _Writer, snapshot: dict) -> None:
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
            f"repro_fleet_{key}_total", fleet.get(key, 0), help_text
        )
    w.gauge(
        "repro_fleet_queue_depth",
        fleet.get("queue_depth", 0),
        "Requests waiting in the router dispatch queue.",
    )
    w.gauge(
        "repro_fleet_inflight",
        fleet.get("inflight", 0),
        "Admitted requests not yet resolved.",
    )
    w.gauge(
        "repro_fleet_workers_ready",
        fleet.get("workers_ready", 0),
        "Worker processes currently accepting dispatches.",
    )
    states = fleet.get("worker_states") or {}
    if states:
        w.family(
            "repro_fleet_worker_up",
            "gauge",
            "Per-slot worker liveness (1 = ready).",
        )
        for slot in sorted(states, key=str):
            w.sample(
                "repro_fleet_worker_up",
                1 if states[slot] == "ready" else 0,
                {"worker": slot, "state": states[slot]},
            )
    workers = snapshot.get("workers") or {}
    for slot in sorted(workers, key=str):
        if workers[slot]:
            w.include(_pool_families(workers[slot]), "worker", slot)


def registry_prometheus_text(snapshots: dict) -> str:
    """Render a registry snapshot, every model's families under ``model``.

    Accepts :meth:`repro.serve.registry.ModelRegistry.snapshot` output:
    ``{name: {"kind", "generation", "snapshot"} | None}`` (``None`` for
    catalog entries whose pool was never built).  Catalog-level gauges
    come first, then every loaded pool's :func:`prometheus_text` families
    under a ``model="<name>"`` label (a fleet pool's series carry
    ``model`` and then ``worker``), so one scrape covers every model a
    process serves.  A catalog of one loaded model renders exactly
    :func:`prometheus_text` of its pool, with no ``model`` label, so
    single-model dashboards and goldens hold.

    Returns:
        Exposition text parseable by :func:`validate_exposition`.
    """
    loaded = {name: snap for name, snap in snapshots.items() if snap}
    if len(snapshots) == 1 and len(loaded) == 1:
        (entry,) = loaded.values()
        return prometheus_text(entry["snapshot"])
    w = _Writer()
    w.gauge(
        "repro_registry_models",
        len(snapshots),
        "Models in the serving catalog.",
    )
    w.gauge(
        "repro_registry_loaded",
        len(loaded),
        "Models with a live replica pool.",
    )
    # Model by model: a family keeps the place of its first declaration.
    for name in sorted(snapshots, key=str):
        entry = snapshots[name]
        w.family(
            "repro_model_up",
            "gauge",
            "Per-model pool liveness (1 = replica pool built).",
        )
        w.sample("repro_model_up", 1 if entry else 0, {"model": name})
        if not entry:
            continue
        w.family(
            "repro_model_generation",
            "gauge",
            "Pool generation of each model (bumps on hot reload).",
        )
        w.sample(
            "repro_model_generation",
            entry.get("generation", 0),
            {"model": name},
        )
        w.include(_pool_families(entry["snapshot"]), "model", name)
    return w.text()


def validate_exposition(text: str) -> dict[str, str]:
    """Parse Prometheus exposition text, checking the format invariants.

    Checks: every sample belongs to a declared ``# TYPE`` family (with
    the ``_bucket`` / ``_sum`` / ``_count`` suffixes allowed for
    histograms) and sits in that family's one group of lines, no family
    is typed twice, no series (name plus label set) or label name
    repeats, values parse as floats, label syntax is well formed, and
    each histogram series (its labels other than ``le``) has cumulative
    (non-decreasing) buckets that end at ``le="+Inf"`` with the ``+Inf``
    bucket equal to its ``_count``.

    Args:
        text: exposition text (e.g. the output of
            :func:`prometheus_text` or a ``--metrics-file``).

    Returns:
        ``{family_name: type}`` for every declared family.

    Raises:
        ValueError: on the first format violation, naming the line.
    """
    families: dict[str, str] = {}
    group = None  # the family whose group of lines is open
    seen: set = set()  # (name, label set) of every sample
    # Per histogram series (family, labels bar ``le``): [last_le, last_cum].
    bucket_state: dict[tuple, list] = {}
    hist_counts: dict[tuple, float] = {}
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
            if parts[2] in families and parts[2] != group:
                raise ValueError(
                    f"line {lineno}: {parts[2]!r} outside its family's group"
                )
            group = parts[2]
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
                if group in families:
                    raise ValueError(
                        f"line {lineno}: second # TYPE for {group!r}"
                    )
                families[group] = kind
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
        value_text = (value_text.split() or [""])[0]
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
        if family != group:
            raise ValueError(
                f"line {lineno}: sample {name!r} outside its family's group"
            )
        if (name, frozenset(labels.items())) in seen:
            raise ValueError(f"line {lineno}: repeated series {raw!r}")
        seen.add((name, frozenset(labels.items())))
        if families[family] == "histogram":
            series = (
                family,
                frozenset(item for item in labels.items() if item[0] != "le"),
            )
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    raise ValueError(
                        f"line {lineno}: histogram bucket without 'le'"
                    )
                bound = math.inf if le == "+Inf" else float(le)
                state = bucket_state.setdefault(series, [-math.inf, -1.0])
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
                hist_counts[series] = value
    for series, (last_le, last_cum) in bucket_state.items():
        where = f"{series[0]!r} {dict(sorted(series[1]))}"
        if not math.isinf(last_le):
            raise ValueError(f"histogram {where} has no le=\"+Inf\" bucket")
        count = hist_counts.get(series)
        if count is not None and count != last_cum:
            raise ValueError(
                f"histogram {where}: +Inf bucket {last_cum} != "
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
        key = key.strip()
        if key in labels:
            raise ValueError(f"line {lineno}: repeated label {key!r}")
        labels[key] = "".join(value)
        text = rest[i + 1 :].lstrip().lstrip(",").lstrip()
    return labels


class JsonlEventLog:
    """Append-only JSON-lines event sink (thread-safe).

    One line per event: ``{"ts": <unix seconds>, "kind": ..., ...}``.
    The serving layer writes sampled traces (``kind="trace"``) and its
    fault and overload events into it; anything JSON-serialisable goes.

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
