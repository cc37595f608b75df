"""In-memory span recorder and the entry-point wrappers of traced runs.

A traced run measures per-layer time without changing the program: it
replaces each layer's public entry points -- at the module or class
attribute the callers look them up by -- with a wrapper that records a
span around the original call.  A span carries a name, start and end
(``time.perf_counter``, the system-wide monotonic clock on Linux, so spans
of the fleet's worker processes share the benchmark's time axis), its
parent span, a request id, the network layer and per-call annotations
(kernel, tier, output bytes, images, simulated cycles).

Spans stay in memory; :meth:`Recorder.dump` writes them when the run ends.
The same module runs inside fleet worker processes through the
``sitecustomize`` hook next to it, which dumps each worker's spans at exit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import threading
import time

__all__ = [
    "Recorder",
    "install",
    "kernel_counts",
    "backend_totals",
    "add_totals",
    "backend_rows",
    "activate_worker",
    "load_spans",
]

#: Per-layer row suffix of each kernel span.  Kernel spans are named
#: after the counter the program's own ``KernelCounters`` books them under.
ROW_SUFFIX = {
    "stream_words": "sng_ms",
    "fused_counts": "counts_ms",
    "recurrence_words": "fe_ms",
    "fused_chain": "chain_ms",
}


class Span:
    """One timed call into a layer's entry point."""

    __slots__ = ("id", "parent", "name", "layer", "start", "end", "request", "attrs")

    def __init__(self, span_id, parent, name, request, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.layer = ""
        self.start = start
        self.end = start
        self.request = request
        self.attrs: dict = {}

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "request": self.request,
            "attrs": self.attrs,
        }


class Recorder:
    """Thread-safe span buffer with a per-thread parent stack."""

    def __init__(self, origin: str = "main") -> None:
        self.origin = origin
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            next(self._ids),
            parent.id if parent is not None else None,
            name,
            request,
            time.perf_counter(),
        )
        if request is None:
            span.request = f"{self.origin}:{span.id}"
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter()
            with self._lock:
                self.spans.append(span)

    # -- call-order layer attribution -----------------------------------------

    def set_network(self, network) -> None:
        self._local.names = _layer_names(network)
        self._local.index = -1

    def layer_for_index(self, index) -> str:
        names = getattr(self._local, "names", {})
        if index is None:
            index = getattr(self._local, "index", -1)
        else:
            self._local.index = index
        return names.get(index, "")

    def next_pool_layer(self) -> str:
        """The first pooling layer after the layer last seen on this thread."""
        names = getattr(self._local, "names", {})
        current = getattr(self._local, "index", -1)
        for index in sorted(names):
            if index > current and names[index].startswith("pool"):
                return names[index]
        return ""

    def layer_of_weights(self, mapper, weights) -> str:
        for index, layer in enumerate(mapper.network.layers):
            if (
                getattr(layer, "weights", None) is weights
                or getattr(layer, "bias", None) is weights
            ):
                return self.layer_for_index(index)
        return self.layer_for_index(None)

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        with self._lock:
            spans = [span.to_dict() for span in self.spans]
        payload = {
            "origin": self.origin,
            "pid": os.getpid(),
            "missing": self.missing,
            "spans": spans,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _layer_names(network) -> dict[int, str]:
    """``{layer index: row name}``: conv1.., pool1.., fc1.., and out."""
    from repro.nn.layers import AvgPool2D, Conv2D, Dense

    layers = list(network.layers)
    dense = [i for i, layer in enumerate(layers) if isinstance(layer, Dense)]
    names: dict[int, str] = {}
    seen: dict[str, int] = {}
    for index, layer in enumerate(layers):
        if isinstance(layer, Dense) and index == dense[-1]:
            names[index] = "out"
            continue
        for kind, prefix in ((Conv2D, "conv"), (AvgPool2D, "pool"), (Dense, "fc")):
            if isinstance(layer, kind):
                seen[prefix] = seen.get(prefix, 0) + 1
                names[index] = f"{prefix}{seen[prefix]}"
    return names


def _key_index(key):
    """The layer index inside a kernel's workspace ``key`` argument."""
    if isinstance(key, bool):
        return None
    if isinstance(key, int):
        return key
    if isinstance(key, tuple):
        for item in key:
            found = _key_index(item)
            if found is not None:
                return found
    return None


def _images_in(images) -> int:
    shape = getattr(images, "shape", None)
    if shape is None:
        return len(images)
    return 1 if len(shape) == 3 else int(shape[0])


# -- wrappers -----------------------------------------------------------------


def _replace(rec: Recorder, owner, attr: str, make) -> None:
    """Swap ``owner.attr`` for ``make(original)``; note a missing one."""
    original = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if original is None:
        original = getattr(owner, attr, None)
    if original is None:
        rec.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    if isinstance(original, classmethod):
        wrapped = make(original.__func__)
        setattr(owner, attr, classmethod(functools.wraps(original.__func__)(wrapped)))
        return
    setattr(owner, attr, functools.wraps(original)(make(original)))


def _kernel(rec: Recorder, name: str, tier: str, layer_of):
    """Wrapper factory for one kernel entry point.

    ``layer_of(args, kwargs)`` names the network layer; the booked output
    bytes mirror what the backend seam records (``out`` when passed, else
    the returned array).  A native call returning ``None`` fell outside the
    compiled fast path: its time stays in the layer row, but it is not a
    kernel call (the seam then runs and books the NumPy kernel).
    """

    def make(fn):
        def wrapper(*args, **kwargs):
            with rec.span(name) as span:
                span.layer = layer_of(args, kwargs)
                result = fn(*args, **kwargs)
            if result is not None or tier == "numpy":
                out = kwargs.get("out")
                target = out if out is not None else result
                span.attrs["kernel"] = name
                span.attrs["tier"] = tier
                span.attrs["bytes"] = int(target.nbytes)
            if name == "fused_chain" and result is not None:
                a, length = args[0], int(args[2] if len(args) > 2 else kwargs["length"])
                span.attrs["cycles"] = min(length, int(a.shape[-1]) * 64)
            return result

        return wrapper

    return make


def _key_layer(rec: Recorder):
    def layer_of(args, kwargs):
        return rec.layer_for_index(_key_index(kwargs.get("key")))

    return layer_of


def install(rec: Recorder) -> None:
    """Wrap every traced entry point of the program (process-wide)."""
    import repro.backends.native as native_backend
    import repro.backends.packed as packed
    from repro.api.artifact import ScModel
    from repro.api.session import Session
    from repro.backends import backend_class
    from repro.nn.sc_layers import ScNetworkMapper
    from repro.sc import native
    from repro.serve.service import ScInferenceService

    # api: artifact load and the offline predict facade.
    def api(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with rec.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    _replace(rec, ScModel, "load", api("api.load"))
    _replace(rec, Session, "from_artifact", api("api.from_artifact"))
    _replace(rec, Session, "predict", api("api.predict"))

    # SNG: input and weight/bias stream generation.
    def stream(input_stream: bool):
        def make(fn):
            def wrapper(mapper, values, rng, packer=None):
                with rec.span("stream_words") as span:
                    span.layer = (
                        "input"
                        if input_stream
                        else rec.layer_of_weights(mapper, values)
                    )
                    words = fn(mapper, values, rng, packer=packer)
                span.attrs["kernel"] = "stream_words"
                span.attrs["tier"] = "numpy" if packer is None else "native"
                span.attrs["bytes"] = int(words.nbytes)
                return words

            return wrapper

        return make

    _replace(rec, ScNetworkMapper, "input_stream_words", stream(True))
    _replace(rec, ScNetworkMapper, "weight_stream_words", stream(False))

    # Kernels, at the names the backends call them by: the compiled tier
    # through the ``repro.sc.native`` module attribute, the NumPy tier
    # through the names imported into the backend modules.
    key_layer = _key_layer(rec)

    def current(args, kwargs):
        return rec.layer_for_index(None)

    for module, tier in ((native, "native"), (packed, "numpy")):
        _replace(rec, module, "fused_xnor_column_counts",
                 _kernel(rec, "fused_counts", tier, key_layer))
        _replace(rec, module, "fused_xnor_majority_chain",
                 _kernel(rec, "fused_chain", tier, key_layer))
    _replace(rec, native, "feature_extraction_recurrence_words",
             _kernel(rec, "recurrence_words", "native", current))
    for module in (packed, native_backend):
        _replace(rec, module, "feature_extraction_recurrence_words",
                 _kernel(rec, "recurrence_words", "numpy", current))

    # The NumPy pooling path and the decode of the output streams.
    def plain(name, layer_of):
        def make(fn):
            def wrapper(*args, **kwargs):
                with rec.span(name) as span:
                    span.layer = layer_of()
                    return fn(*args, **kwargs)

            return wrapper

        return make

    for attr in ("packed_column_counts", "pooling_recurrence", "pack_bits"):
        _replace(rec, packed, attr, plain("pool", rec.next_pool_layer))
    for attr in ("ones_count", "prefix_chain_scores"):
        _replace(rec, packed, attr, plain("decode", lambda: "decode"))

    # Backend: one root span per forward / forward_partial call.
    def forward(fn):
        def wrapper(backend, images, *args, **kwargs):
            with rec.span("forward") as span:
                span.layer = "backend"
                span.attrs["images"] = _images_in(images)
                rec.set_network(backend.mapper.network)
                return fn(backend, images, *args, **kwargs)

        return wrapper

    native_cls = backend_class("bit-exact-native")
    _replace(rec, native_cls, "forward", forward)
    _replace(rec, native_cls, "forward_partial", forward)

    # Service: submit span, completed by the response's own trace summary
    # (the service tracer runs at sample rate 1.0 in traced runs).
    def submit(fn):
        def wrapper(service, images, options=None):
            with rec.span("service.submit") as span:
                span.layer = "service"
                span.attrs["images"] = _images_in(images)
                future = fn(service, images, options)

            def done(fut, span=span):
                span.attrs["done"] = time.perf_counter()
                if fut.cancelled() or fut.exception() is not None:
                    span.attrs["error"] = True
                    return
                response = fut.result()
                span.attrs["latency_ms"] = response.latency_seconds * 1e3
                summary = response.trace
                if summary is not None:
                    span.attrs["queue_ms"] = summary.queue_ms
                    span.attrs["compute_ms"] = summary.stages.get("compute")

            future.add_done_callback(done)
            return future

        return wrapper

    _replace(rec, ScInferenceService, "submit", submit)


# -- worker-process hook --------------------------------------------------------


def activate_worker(out_dir: str) -> None:
    """Trace this (fleet worker) process and dump its spans at exit."""
    import atexit

    rec = Recorder(origin=f"worker-{os.getpid()}")
    install(rec)
    atexit.register(rec.dump, os.path.join(out_dir, f"worker-{os.getpid()}.json"))


def load_spans(path: str) -> list[dict]:
    with open(path) as handle:
        return json.load(handle)["spans"]


# -- aggregation ------------------------------------------------------------------


def kernel_counts(spans: list[dict]) -> dict:
    """``{kernel: {tier: {"calls", "bytes"}}}`` booked by kernel spans."""
    counts: dict = {}
    for span in spans:
        kernel = span["attrs"].get("kernel")
        if kernel is None:
            continue
        cell = counts.setdefault(kernel, {}).setdefault(
            span["attrs"]["tier"], {"calls": 0, "bytes": 0}
        )
        cell["calls"] += 1
        cell["bytes"] += span["attrs"]["bytes"]
    return counts


def self_times(spans: list[dict]) -> dict[int, float]:
    """Seconds of each span not covered by its direct child spans.

    Keyed by span id, so ``spans`` must come from one process.
    """
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = (
                children.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    return {
        span["id"]: span["end"] - span["start"] - children.get(span["id"], 0.0)
        for span in spans
    }


def backend_totals(spans: list[dict]) -> dict:
    """Raw per-row seconds and forward counts of one process's spans.

    Totals of several processes add up key by key; :func:`backend_rows`
    turns the sum into per-image rows.  ``spans`` must come from one
    process (span ids are per process), restricted to the measured phase.
    """
    own = self_times(spans)
    totals: dict[str, float] = {
        "forward_s": 0.0,
        "glue_s": 0.0,
        "forwards": 0,
        "images": 0,
        "simulated_cycles": 0,
    }
    chain_cycles: dict = {}
    for span in spans:
        name, layer = span["name"], span["layer"]
        if name in ROW_SUFFIX and layer:
            row = f"{layer}.{ROW_SUFFIX[name]}"
        elif name == "pool" and layer:
            row = f"{layer}_ms"
        elif name == "decode":
            row = "decode_ms"
        else:
            row = None
        if row is not None:
            totals[row] = totals.get(row, 0.0) + own[span["id"]]
        if name == "fused_chain" and "cycles" in span["attrs"]:
            parent = span["parent"]
            chain_cycles[parent] = max(
                chain_cycles.get(parent, 0), span["attrs"]["cycles"]
            )
    for span in spans:
        if span["name"] != "forward":
            continue
        totals["forwards"] += 1
        totals["images"] += span["attrs"]["images"]
        totals["forward_s"] += span["end"] - span["start"]
        totals["glue_s"] += own[span["id"]]
        totals["simulated_cycles"] += (
            chain_cycles.get(span["id"], 0) * span["attrs"]["images"]
        )
    return totals


def add_totals(parts) -> dict:
    merged: dict = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def backend_rows(totals: dict, answered: int) -> dict[str, float]:
    """Per-layer self time in ms per answered image, plus backend rows."""
    scale = 1e3 / max(1, answered)
    rows = {
        key: seconds * scale
        for key, seconds in totals.items()
        if key.endswith("_ms")
    }
    forward_s = totals.get("forward_s", 0.0)
    glue_s = totals.get("glue_s", 0.0)
    rows["backend.forward_ms"] = forward_s * scale
    rows["backend.glue_ms"] = glue_s * scale
    rows["backend.coverage_share"] = (
        (forward_s - glue_s) / forward_s if forward_s > 0 else 0.0
    )
    forwards = totals.get("forwards", 0)
    rows["backend.images_per_call"] = (
        totals.get("images", 0) / forwards if forwards else 0.0
    )
    rows["progressive.simulated_cycles_per_image"] = (
        totals.get("simulated_cycles", 0) / max(1, answered)
    )
    return rows


def median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0
