"""Observability: request tracing, kernel-tier counters, metrics export.

The measurement substrate under the serving layer (:mod:`repro.serve`)
and the packed backends (:mod:`repro.backends`):

* :mod:`~repro.obs.trace` -- a sampling span tracer
  (:class:`~repro.obs.trace.Tracer`) with explicit parent/child spans,
  a bounded ring buffer of completed traces, and
  a per-request :class:`~repro.obs.trace.TraceSummary` carried on every
  :class:`~repro.serve.InferenceResponse` of a sampled request.
* :mod:`~repro.obs.counters` -- per-kernel, per-tier
  (native vs NumPy) invocation counters
  (:class:`~repro.obs.counters.KernelCounters`) hooked into the packed
  backend's kernel seam, surfaced via ``Backend.kernel_snapshot()`` and
  ``ScInferenceService.snapshot()["kernels"]``.
* :mod:`~repro.obs.export` -- the one Prometheus text-exposition writer
  (:func:`~repro.obs.export.prometheus_text`, whose fleet and registry
  views are the service's families under a ``worker`` / ``model``
  label), its parser :func:`~repro.obs.export.validate_exposition`, and
  the JSONL event log (:class:`~repro.obs.export.JsonlEventLog`) that a
  service writes its traces and fault/overload events into.

This package sits *below* the backends and serving layer in the import
graph (it imports neither), so every layer can record into it without
cycles.
"""

from repro.obs.counters import KernelCounters, merge_kernel_snapshots
from repro.obs.export import (
    JsonlEventLog,
    prometheus_text,
    registry_prometheus_text,
    validate_exposition,
)
from repro.obs.trace import Span, Trace, Tracer, TraceSummary

__all__ = [
    "Tracer",
    "Trace",
    "Span",
    "TraceSummary",
    "KernelCounters",
    "merge_kernel_snapshots",
    "prometheus_text",
    "registry_prometheus_text",
    "validate_exposition",
    "JsonlEventLog",
]
