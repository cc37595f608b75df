#!/usr/bin/env python
"""Performance benchmark harness: legacy byte-per-bit vs packed paths.

Times the SC hot kernels -- SNG word generation, XNOR multiplication,
sorter average pooling, sorter feature extraction, and end-to-end bit-exact
network inference -- at several stream lengths, for both the legacy
``uint8``/per-instance paths and the word-packed / batched engines, and
writes ``BENCH_perf.json`` (seconds, ops/sec, speedup, peak bytes).  Each
run is also **appended to the ``history`` list** inside the JSON report,
so the performance trajectory accumulates across PRs instead of being
overwritten.

End-to-end inference is timed through the execution-backend registry
(:mod:`repro.backends`): the per-image legacy oracle vs the word-packed
data plane (``bit-exact-packed`` with ``use_native=False``), that NumPy
tier vs the compiled kernel tier (``bit-exact-native``, the alias that
runs it by default), and a thread sweep over the ``workers`` option, each
entry recording the backend names it compared (with ``use_native=False``
where the NumPy tier was pinned).  Sweep points asking for more workers
than the host has CPUs are written as ``skipped``, never as speedups.

Every comparison **asserts bit-exactness** between the two paths before
reporting a speedup: the packed engine is a faster representation of the
same hardware, not an approximation.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py [--quick] [--output PATH]

``--quick`` restricts the stream-length grid (used by CI smoke runs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.api import Session
from repro.backends import BitExactPackedBackend, create_backend
from repro.blocks.batched import feature_extraction_recurrence_words
from repro.blocks.feature_extraction import SorterFeatureExtractionBlock
from repro.blocks.pooling import SorterAveragePoolingBlock
from repro.config import PredictOptions
from repro.nn.architectures import LayerSpec, build_network
from repro.nn.layers import AvgPool2D
from repro.nn.sc_layers import ScNetworkMapper
from repro.rng.lfsr import Lfsr
from repro.sc import native
from repro.sc.packed import (
    fused_xnor_column_counts,
    pack_bits,
    packed_column_counts,
    packed_xnor,
    unpack_bits,
    words_for_length,
)
from repro.workspace import Workspace

REPO_ROOT = Path(__file__).resolve().parent.parent

FULL_LENGTHS = (256, 1024, 8192)
QUICK_LENGTHS = (256, 1024)

#: Kernel name of the ``workers`` thread sweep (see :func:`bench_thread_scaling`).
THREAD_SWEEP = "bit-exact-inference-threads"

#: Approximate bit-operations per timed measurement; the inner repetition
#: count of the cheap kernels is scaled so that even a fast path runs long
#: enough to time reliably.
TARGET_BIT_OPS = 50_000_000


def _legacy_lfsr_words(lfsr: Lfsr, count: int) -> np.ndarray:
    """The pre-vectorisation ``Lfsr.words`` hot path: one step per word."""
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        out[i] = lfsr.step()
    return out


def _legacy_xnor_bits(bits_a: np.ndarray, bits_b: np.ndarray) -> np.ndarray:
    """The pre-packing XNOR data path (byte per bit, logical ufuncs)."""
    return np.logical_not(np.logical_xor(bits_a, bits_b)).astype(np.uint8)


def _time_call(fn, repeats: int = 2):
    """Best-of-``repeats`` wall time plus the function result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _peak_bytes(fn) -> int:
    """Peak traced allocation of one run (NumPy buffers are traced)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _entry(
    kernel: str,
    stream_length: int,
    n_ops: int,
    legacy_fn,
    new_fn,
    check_equal,
    legacy_repeats: int = 1,
    new_repeats: int = 2,
    backend: str | None = None,
    baseline_backend: str | None = None,
    workers: int | None = None,
) -> dict:
    """Time both paths, assert bit-exactness, and build one JSON record.

    Peak bytes are ``tracemalloc``-traced Python-heap allocations of one
    run of each path (NumPy buffers are traced, on every thread).
    ``peak_bytes_ratio`` is the
    new-path peak divided by the legacy peak -- the per-kernel memory
    delta the ISSUE 4 fused kernels are judged on.
    """
    legacy_seconds, legacy_result = _time_call(legacy_fn, legacy_repeats)
    new_seconds, new_result = _time_call(new_fn, new_repeats)
    assert check_equal(legacy_result, new_result), (
        f"{kernel} @ N={stream_length}: new-path output differs from the "
        "legacy path"
    )
    legacy_peak = _peak_bytes(legacy_fn)
    new_peak = _peak_bytes(new_fn)
    entry = {
        "kernel": kernel,
        "stream_length": stream_length,
        "bit_ops": n_ops,
        "legacy_seconds": legacy_seconds,
        "new_seconds": new_seconds,
        "speedup": legacy_seconds / new_seconds,
        "legacy_ops_per_sec": n_ops / legacy_seconds,
        "new_ops_per_sec": n_ops / new_seconds,
        "legacy_peak_bytes": legacy_peak,
        "new_peak_bytes": new_peak,
        "peak_bytes_ratio": new_peak / legacy_peak if legacy_peak else None,
        "bit_exact": True,
    }
    if backend is not None:
        entry["backend"] = backend
    if baseline_backend is not None:
        entry["baseline_backend"] = baseline_backend
    if workers is not None:
        entry["workers"] = workers
    label = kernel if workers is None else f"{kernel}[w={workers}]"
    print(
        f"  {label:<26s} N={stream_length:<6d} "
        f"legacy {legacy_seconds * 1e3:8.2f} ms   "
        f"new {new_seconds * 1e3:8.2f} ms   "
        f"speedup {entry['speedup']:7.1f}x   "
        f"peak {new_peak / 1e6:7.2f} / {legacy_peak / 1e6:7.2f} MB"
    )
    return entry


def bench_sng(length: int) -> dict:
    """LFSR random-word generation feeding SNG comparators."""
    n_values = 64
    count = n_values * length
    legacy_lfsr = Lfsr(10, seed=17)
    fast_lfsr = Lfsr(10, seed=17)

    def legacy():
        legacy_lfsr.reset()
        return _legacy_lfsr_words(legacy_lfsr, count)

    def fast():
        fast_lfsr.reset()
        return fast_lfsr.words(count)

    return _entry(
        "sng-lfsr-words",
        length,
        count,
        legacy,
        fast,
        lambda a, b: np.array_equal(a, b),
    )


def bench_sng_word_direct(length: int) -> dict:
    """Weight-stream SNG: the byte-per-bit oracle vs the word-direct path.

    Both sides draw the same ``default_rng`` stream for a 128 x 64 weight
    tensor.  The legacy side is what the ``bit-exact-legacy`` oracle
    draws (:meth:`ScNetworkMapper.weight_stream_bits`: one full-stream
    ``float64`` draw tensor, then a byte-per-bit stream tensor), packed
    with ``pack_bits``.  The new side is the packed data plane's SNG,
    :meth:`ScNetworkMapper.weight_stream_words`, which draws in chunks
    bounded by ``_DRAWS_BYTES_BUDGET`` and packs each chunk at once.  At
    N=1024 the tensor's draws (64 MiB) exceed that budget, so the
    memory-regression guard in ``run()`` pins the chunking down.
    """
    mapper = _bench_network_mapper(length)
    weights = np.random.default_rng(9).uniform(-1.0, 1.0, (128, 64))
    count = weights.size * length

    def legacy():
        rng = np.random.default_rng(13)
        return pack_bits(mapper.weight_stream_bits(weights, rng))

    def fast():
        return mapper.weight_stream_words(weights, np.random.default_rng(13))

    return _entry(
        "sng-word-direct",
        length,
        count,
        legacy,
        fast,
        lambda a, b: np.array_equal(a, b),
    )


def bench_fused_counts(length: int) -> dict:
    """Inner-product reduction: materialised XNOR products + CSA tree vs
    the fused streaming kernel (O(log M) live planes, no product tensor)."""
    m, instances = 128, 64  # FC-like fan-in: where de-materialising pays
    rng = np.random.default_rng(4)
    a = pack_bits(rng.integers(0, 2, (instances, m, length), dtype=np.uint8))
    b = pack_bits(rng.integers(0, 2, (instances, m, length), dtype=np.uint8))
    workspace = Workspace()
    inner = max(1, TARGET_BIT_OPS // (instances * m * length))

    def legacy():
        for _ in range(inner):
            out = packed_column_counts(packed_xnor(a, b, length), length)
        return out

    def fused():
        for _ in range(inner):
            out = fused_xnor_column_counts(a, b, length, workspace=workspace)
        return out

    return _entry(
        "fused-column-counts",
        length,
        inner * instances * m * length,
        legacy,
        fused,
        lambda x, y: np.array_equal(x, y),
        legacy_repeats=2,
    )


def bench_xnor(length: int) -> dict:
    """Bipolar SC multiplication: byte-per-bit ufuncs vs packed words."""
    n_values = 256
    rng = np.random.default_rng(1)
    bits_a = rng.integers(0, 2, (n_values, length), dtype=np.uint8)
    bits_b = rng.integers(0, 2, (n_values, length), dtype=np.uint8)
    words_a = pack_bits(bits_a)
    words_b = pack_bits(bits_b)
    inner = max(1, TARGET_BIT_OPS // (n_values * length))

    def legacy():
        for _ in range(inner):
            out = _legacy_xnor_bits(bits_a, bits_b)
        return out

    def fast():
        for _ in range(inner):
            out = packed_xnor(words_a, words_b, length)
        return out

    return _entry(
        "xnor-multiply",
        length,
        inner * n_values * length,
        legacy,
        fast,
        lambda a, b: np.array_equal(a, unpack_bits(b, length)),
        legacy_repeats=2,
    )


def bench_pooling(length: int) -> dict:
    """Average pooling: the oracle's per-cycle counter vs the packed
    backend's pooling stage.

    Both sides pool the same conv-shaped streams: 32 images of 4 channels
    on an 8 x 8 map, in 4 x 4 windows (512 windows of M = 16 streams;
    the per-cycle side's unpacked windows stay near 70 MB at N = 8192).
    The legacy side runs
    :meth:`SorterAveragePoolingBlock.forward_bits_reference` on the
    unpacked windows, as the ``bit-exact-legacy`` oracle does.  The new
    side is ``bit-exact-packed``'s own pooling stage
    (``BitExactPackedBackend._packed_pool``) on the packed words, warmed
    first, so its peak bytes are the chunk-sized transients of a steady
    call.
    """
    batch, channels, size = 32, 4, 8
    mapper = _bench_network_mapper(length)
    key, layer = next(
        (index, layer)
        for index, layer in enumerate(mapper.network.layers)
        if isinstance(layer, AvgPool2D)
    )
    p, cells = layer.pool_size, size // layer.pool_size
    rng = np.random.default_rng(2)
    bits = rng.integers(
        0, 2, (batch, channels, size, size, length), dtype=np.uint8
    )
    words = pack_bits(bits)
    windows = (
        bits.reshape(batch, channels, cells, p, cells, p, length)
        .transpose(0, 1, 2, 4, 3, 5, 6)
        .reshape(batch, channels, cells, cells, p * p, length)
    )
    block = SorterAveragePoolingBlock(p * p)
    backend = create_backend("bit-exact-packed", mapper)
    backend._packed_pool(words, layer, key)
    return _entry(
        "pooling",
        length,
        bits.size,
        lambda: block.forward_bits_reference(windows),
        lambda: backend._packed_pool(words, layer, key),
        lambda a, b: np.array_equal(pack_bits(a), b),
        new_repeats=3,
        backend="bit-exact-packed",
    )


def bench_feature_extraction(length: int) -> dict:
    """Feature extraction: one recurrence per block vs whole-layer batch."""
    m, instances = 9, 128
    rng = np.random.default_rng(3)
    products = rng.integers(0, 2, (instances, m, length), dtype=np.uint8)
    block = SorterFeatureExtractionBlock(m)

    def legacy():
        return np.stack([block.forward_products(p) for p in products])

    return _entry(
        "feature-extraction",
        length,
        instances * m * length,
        legacy,
        lambda: block.forward_products(products),
        lambda a, b: np.array_equal(a, b),
    )


def _bench_network_mapper(length: int) -> ScNetworkMapper:
    """The small CNN used by every end-to-end inference benchmark."""
    specs = [
        LayerSpec(kind="conv", name="Conv3_x", kernel=3, channels=4),
        LayerSpec(kind="pool", name="AvgPool", kernel=4, stride=4),
        LayerSpec(kind="fc", name="FC32", units=32),
        LayerSpec(kind="output", name="OutLayer", units=10),
    ]
    network = build_network(
        specs, activation="hardware", seed=5, training_stream_length=256
    )
    return ScNetworkMapper(network, stream_length=length, seed=7)


def bench_end_to_end(length: int, n_images: int) -> dict:
    """Whole-network bit-exact inference: per-image legacy vs packed.

    Both paths run through the execution-backend registry; the legacy
    oracle is the baseline every end-to-end speedup is quoted against.
    The packed backend runs its NumPy kernels, so this entry measures the
    data plane and ``bench_native_end_to_end`` the compiled tier.  It is
    warmed first, so its timing is a steady-state forward, not the
    one-time build of the mapper's stream plane (the legacy oracle keeps
    no per-mapper state).
    """
    mapper = _bench_network_mapper(length)
    images = np.random.default_rng(11).random((n_images, 1, 28, 28))
    legacy = create_backend("bit-exact-legacy", mapper)
    packed = BitExactPackedBackend(mapper, use_native=False)
    packed.forward(images)
    return _entry(
        "bit-exact-inference",
        length,
        n_images * length,
        lambda: legacy.forward(images),
        lambda: packed.forward(images),
        lambda a, b: np.array_equal(a, b),
        new_repeats=1,
        backend="bit-exact-packed (use_native=False)",
        baseline_backend="bit-exact-legacy",
    )


def bench_native_fused_counts(length: int) -> dict:
    """Compiled fused XNOR+popcount vs the NumPy Harley-Seal CSA tree.

    Both sides start from the same packed operands; the "legacy" side here
    is the *current* NumPy fused kernel (itself already fused and
    allocation-free), so the recorded speedup isolates exactly what native
    code buys: vectorized carry-save blocks, a count expansion limited to
    the live levels, and no per-plane ufunc dispatch.
    """
    m, instances = 128, 64
    rng = np.random.default_rng(4)
    a = pack_bits(rng.integers(0, 2, (instances, m, length), dtype=np.uint8))
    b = pack_bits(rng.integers(0, 2, (instances, m, length), dtype=np.uint8))
    numpy_ws, native_ws = Workspace(), Workspace()
    inner = max(1, TARGET_BIT_OPS // (instances * m * length))

    def numpy_path():
        for _ in range(inner):
            out = fused_xnor_column_counts(a, b, length, workspace=numpy_ws)
        return out

    def native_path():
        for _ in range(inner):
            out = native.fused_xnor_column_counts(
                a, b, length, workspace=native_ws
            )
        assert out is not None, "native fused kernel rejected a bench shape"
        return out

    return _entry(
        "native-fused-counts",
        length,
        inner * instances * m * length,
        numpy_path,
        native_path,
        lambda x, y: np.array_equal(x, y),
        legacy_repeats=2,
    )


def bench_native_fe_stepper(length: int) -> dict:
    """Compiled row-tiled FE stepper vs the NumPy strategy dispatcher.

    ``batch`` rows of ``length``-cycle column counts: the stream is the
    last axis, as the stepper reads it.
    """
    batch = 128
    half, low, high = 4, -4, 5  # the m=9 sorter column bounds
    rng = np.random.default_rng(6)
    counts = rng.integers(0, 2 * half + 2, (batch, length), dtype=np.uint8)
    numpy_ws, native_ws = Workspace(), Workspace()
    inner = max(1, TARGET_BIT_OPS // (batch * length * 8))

    def numpy_path():
        for _ in range(inner):
            out = feature_extraction_recurrence_words(
                counts, half, low, high, workspace=numpy_ws
            )
        return out

    def native_path():
        for _ in range(inner):
            out = native.feature_extraction_recurrence_words(
                counts, half, low, high, workspace=native_ws
            )
        assert out is not None, "native FE stepper rejected a bench shape"
        return out

    return _entry(
        "native-fe-stepper",
        length,
        inner * batch * length,
        numpy_path,
        native_path,
        lambda x, y: np.array_equal(x, y),
        legacy_repeats=2,
    )


def bench_native_pack_comparator(length: int) -> dict:
    """Compiled word-direct SNG comparator vs the mapper's NumPy fallback.

    ``float64`` draws against per-value thresholds, packed straight into
    words (:func:`repro.sc.native.pack_comparator_floats`) or compared
    then packed (``pack_bits(draws < thresholds)``), as the mapper's
    stream generation does without the compiled tier.
    """
    n_values = 256
    rng = np.random.default_rng(8)
    draws = rng.random((n_values, length))
    thresholds = rng.random(n_values)
    out = np.empty((n_values, words_for_length(length)), dtype=np.uint64)
    inner = max(1, TARGET_BIT_OPS // (n_values * length))

    def numpy_path():
        for _ in range(inner):
            words = pack_bits(draws < thresholds[:, None])
        return words

    def native_path():
        for _ in range(inner):
            words = native.pack_comparator_floats(draws, thresholds, out)
        assert words is not None, "native comparator rejected a bench shape"
        return words

    return _entry(
        "native-pack-comparator",
        length,
        inner * n_values * length,
        numpy_path,
        native_path,
        lambda x, y: np.array_equal(x, y),
        legacy_repeats=2,
    )


def bench_native_end_to_end(length: int, n_images: int) -> dict:
    """Whole-network inference: NumPy packed plane vs compiled kernel tier.

    Both backends share one mapper and are warmed before timing, so
    neither side is charged the one-time stream-plane build.
    """
    mapper = _bench_network_mapper(length)
    images = np.random.default_rng(11).random((n_images, 1, 28, 28))
    packed = BitExactPackedBackend(mapper, use_native=False)
    native_backend = create_backend("bit-exact-native", mapper)
    packed.forward(images)
    native_backend.forward(images)
    return _entry(
        "bit-exact-inference-native",
        length,
        n_images * length,
        lambda: packed.forward(images),
        lambda: native_backend.forward(images),
        lambda a, b: np.array_equal(a, b),
        new_repeats=2,
        backend="bit-exact-native",
        baseline_backend="bit-exact-packed (use_native=False)",
    )


def bench_thread_scaling(length: int, n_images: int, worker_counts) -> list:
    """Worker-count sweep of ``PredictOptions(workers=...)`` on native.

    Every point shards the batch across that many threads through
    :meth:`repro.api.Session.predict`; the compiled kernels release the
    GIL, so shards genuinely overlap.  Baseline is the unsharded
    ``bit-exact-native`` predict.  A point asking for more workers than
    the host has CPUs would time the scheduler, not the backend: it is
    recorded as ``skipped`` with no timing.
    """
    mapper = _bench_network_mapper(length)
    images = np.random.default_rng(11).random((n_images, 1, 28, 28))
    cpus = os.cpu_count() or 1
    entries = []
    with Session.from_network(
        mapper.network,
        weight_bits=mapper.weight_bits,
        stream_length=length,
        seed=mapper.seed,
        backend="bit-exact-native",
    ) as session:
        session.predict(images[:1])  # warm the workspace arena
        for workers in worker_counts:
            if workers > cpus:
                entries.append(
                    {
                        "kernel": THREAD_SWEEP,
                        "stream_length": length,
                        "backend": "bit-exact-native",
                        "workers": workers,
                        "skipped": f"workers {workers} > cpu_count {cpus}",
                    }
                )
                print(
                    f"  {THREAD_SWEEP}[w={workers}] skipped: "
                    f"{entries[-1]['skipped']}"
                )
                continue
            options = PredictOptions(workers=workers)
            session.predict(images, options)  # warm every shard's replica
            entries.append(
                _entry(
                    THREAD_SWEEP,
                    length,
                    n_images * length,
                    lambda: session.predict(images).scores,
                    lambda o=options: session.predict(images, o).scores,
                    lambda a, b: np.array_equal(a, b),
                    new_repeats=2,
                    backend="bit-exact-native",
                    baseline_backend="bit-exact-native",
                    workers=workers,
                )
            )
    return entries


def host_context() -> dict:
    """Host facts that make cross-run speedup comparisons interpretable."""
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "native": native.describe(),
    }


#: Default cap on the accumulated ``history`` list: enough runs to read a
#: trajectory across many PRs without the report growing without bound.
DEFAULT_HISTORY_LIMIT = 50


def _load_history(output: Path) -> list:
    """Prior run records from an existing report (tolerates missing/old files)."""
    try:
        previous = json.loads(output.read_text())
    except (OSError, ValueError):
        return []
    history = previous.get("history", []) if isinstance(previous, dict) else []
    return history if isinstance(history, list) else []


def _memory_regression_guard(entries: list) -> None:
    """Hard guard: the word-direct SNG must stay *below* legacy memory.

    ``weight_stream_words`` keeps its live draws near the mapper's
    ``_DRAWS_BYTES_BUDGET`` by drawing in chunks; drawing the whole
    tensor at once would hold the same ``float64`` draws as the oracle
    plus a compare transient, and read above it.  Runs at N=1024, which
    both the quick (CI) and full grids include.
    """
    for entry in entries:
        if entry["kernel"] == "sng-word-direct" and entry["stream_length"] == 1024:
            assert entry["new_peak_bytes"] < entry["legacy_peak_bytes"], (
                "memory regression: word-direct SNG peaked at "
                f"{entry['new_peak_bytes']} bytes, above the legacy path's "
                f"{entry['legacy_peak_bytes']}"
            )
            return
    raise AssertionError("no sng-word-direct entry at N=1024 to guard")


def _scaling_guard(entries: list, quick: bool) -> None:
    """Multi-core guard: >= 2x over single-core native with >= 4 workers.

    Only enforceable where >= 4 real cores exist; on smaller hosts the
    sweep still asserts bit-exactness (inside ``_entry``) and the guard
    reports why it is skipped.
    """
    cpus = os.cpu_count() or 1
    sweep = [
        e for e in entries if e["kernel"] == THREAD_SWEEP and "skipped" not in e
    ]
    if not sweep:
        return
    best = max(e["speedup"] for e in sweep)
    if quick or cpus < 4:
        print(
            f"  thread scaling guard skipped (quick={quick}, cpus={cpus}); "
            f"best observed speedup {best:.2f}x"
        )
        return
    eligible = [e for e in sweep if e["workers"] >= 4]
    best4 = max(e["speedup"] for e in eligible)
    assert best4 >= 2.0, (
        f"{best4:.2f}x with >= 4 thread workers over single-core native "
        f"on a {cpus}-CPU host; the sweep must reach >= 2x"
    )


def _plane_guard(length: int = 256) -> None:
    """Stream-plane guard: a warmed forward books one ``stream_words`` call.

    The input comparison draws and every weight/bias stream are drawn
    once per mapper (``ScNetworkMapper.stream_plane``), so after the
    first forward the only SNG work left is the compare-and-pack of the
    images.  Any further booked call means the plane is being redrawn.
    """
    backend = create_backend("bit-exact-native", _bench_network_mapper(length))
    images = np.random.default_rng(11).random((2, 1, 28, 28))

    def stream_calls() -> int:
        cells = backend.kernel_snapshot().get("stream_words", {})
        return sum(cell["calls"] for cell in cells.values())

    backend.forward(images)
    before = stream_calls()
    backend.forward(images)
    calls = stream_calls() - before
    print(
        f"  plane guard: a warmed bit-exact-native forward booked {calls} "
        "stream_words call(s) (expected 1)"
    )
    assert calls == 1, (
        f"a warmed bit-exact-native forward booked {calls} stream_words "
        "calls; the mapper's stream plane should leave exactly one (the "
        "input compare)"
    )


def _native_guard(entries: list, require: bool) -> None:
    """Compiled-tier guard: >= 2x over the NumPy fused CSA tree.

    The native tier's contract is "same bits, materially faster"; the
    fused XNOR+popcount reduction is the kernel with the least NumPy
    overhead left to beat, so it is where the 2x floor is asserted.  The
    guard is only *enforced* under ``--assert-native`` (the CI native
    smoke job); without the flag a shortfall -- or an absent tier -- just
    prints, so NumPy-only hosts stay green.
    """
    fused = [e for e in entries if e["kernel"] == "native-fused-counts"]
    if not fused:
        if require:
            raise AssertionError(
                "--assert-native: compiled kernel tier unavailable "
                f"({native.native_error()})"
            )
        return
    best = max(e["speedup"] for e in fused)
    print(
        f"  native guard: fused-counts best speedup {best:.2f}x over the "
        f"NumPy CSA tree (floor 2.0x {'enforced' if require else 'advisory'})"
    )
    if require:
        assert best >= 2.0, (
            f"compiled fused-counts kernel reached only {best:.2f}x over "
            "the NumPy CSA tree; the native tier must buy >= 2x"
        )


def run(
    quick: bool,
    output: Path,
    history_limit: int = DEFAULT_HISTORY_LIMIT,
    assert_native: bool = False,
) -> dict:
    # Reject a bad limit before spending minutes measuring.
    if history_limit < 1:
        raise SystemExit("--history-limit must be >= 1")
    lengths = QUICK_LENGTHS if quick else FULL_LENGTHS
    entries = []
    for length in lengths:
        print(f"stream length N = {length}:")
        entries.append(bench_sng(length))
        entries.append(bench_sng_word_direct(length))
        entries.append(bench_xnor(length))
        entries.append(bench_fused_counts(length))
        entries.append(bench_pooling(length))
        entries.append(bench_feature_extraction(length))
        if native.available():
            entries.append(bench_native_fused_counts(length))
            entries.append(bench_native_fe_stepper(length))
            entries.append(bench_native_pack_comparator(length))
    # End-to-end inference is dominated by the legacy per-image cost, so it
    # runs at a single stream length (longer in the full sweep); the
    # packed-vs-native comparison has no per-image path and therefore
    # affords the long-stream regime where packing matters most.
    print("end-to-end:")
    if quick:
        entries.append(bench_end_to_end(256, n_images=2))
        if native.available():
            entries.append(bench_native_end_to_end(1024, n_images=2))
            entries.extend(
                bench_thread_scaling(1024, n_images=4, worker_counts=(2,))
            )
    else:
        entries.append(bench_end_to_end(1024, n_images=4))
        if native.available():
            entries.append(bench_native_end_to_end(8192, n_images=4))
            entries.extend(
                bench_thread_scaling(8192, n_images=8, worker_counts=(1, 2, 4))
            )
    _memory_regression_guard(entries)
    _scaling_guard(entries, quick)
    _native_guard(entries, assert_native)
    _plane_guard()
    history = _load_history(output)
    history.append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "quick": quick,
            "host": host_context(),
            "entries": [
                {
                    key: entry[key]
                    for key in (
                        "kernel",
                        "stream_length",
                        "speedup",
                        "new_ops_per_sec",
                        "legacy_peak_bytes",
                        "new_peak_bytes",
                        "peak_bytes_ratio",
                        "backend",
                        "baseline_backend",
                        "workers",
                        "skipped",
                    )
                    if key in entry
                }
                for entry in entries
            ],
        }
    )
    # Keep the newest runs only, so the report stops growing without bound.
    history = history[-history_limit:]
    report = {
        "quick": quick,
        "stream_lengths": list(lengths),
        "host": host_context(),
        "entries": entries,
        "history": history,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {output} ({len(history)} run(s) in history)")
    for entry in entries:
        if "skipped" in entry:
            continue
        print(
            f"  {entry['kernel']:<22s} N={entry['stream_length']:<6d} "
            f"{entry['speedup']:8.1f}x  "
            f"({entry['new_ops_per_sec'] / 1e6:9.1f} Mops/s)"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="restrict the stream-length grid (CI smoke run)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_perf.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--history-limit",
        type=int,
        default=DEFAULT_HISTORY_LIMIT,
        help="maximum runs kept in the report's accumulating history list",
    )
    parser.add_argument(
        "--assert-native",
        action="store_true",
        help="fail unless the compiled tier is available and beats the "
        "NumPy fused-counts kernel by >= 2x (CI native smoke guard)",
    )
    args = parser.parse_args(argv)
    # Fail on an unwritable report path before spending minutes measuring.
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.touch()
    run(
        args.quick,
        args.output,
        history_limit=args.history_limit,
        assert_native=args.assert_native,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
