"""Bit-exact SC inference benchmark: batch kernels, in-process serving, HTTP fleet.

Run from the root of a checkout::

    python3 perfbench/run.py --workload offline-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
measures an untraced and a traced half-phase and reports the per-layer
metrics.  Every run checks a seeded subset of its answers against the
``bit-exact-legacy`` oracle.  The last stdout line is the result::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

Full details (host context, model digest, sample counts, error rate,
generator lag, oracle and counter cross-check) go to
``.bench_build/perfbench/``.  See ``perfbench/README.md`` for the
workloads and the metric reference.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
ARTIFACT = HERE / "model"

#: sha256 of the stored model's ``manifest.json`` (which embeds the
#: payload digests); a run on any other model is refused.
MODEL_SHA256 = "b1044840730d91a3cfebe7d22315c3c1d961e6888bc403ff7b4e6df845db4b19"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "latency_p50_ms": "ms",
    "ttfc_p50_ms": "ms",
    "stream_checkpoint_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "input.sng_ms": "ms",
    "conv1.sng_ms": "ms",
    "conv1.counts_ms": "ms",
    "conv1.fe_ms": "ms",
    "pool1_ms": "ms",
    "fc1.sng_ms": "ms",
    "fc1.counts_ms": "ms",
    "fc1.fe_ms": "ms",
    "out.sng_ms": "ms",
    "out.chain_ms": "ms",
    "decode_ms": "ms",
    "backend.glue_ms": "ms",
    "backend.forward_ms": "ms",
    "backend.coverage_share": "ratio",
    "backend.images_per_call": "images",
    "progressive.simulated_cycles_per_image": "cycles",
    "progressive.exit_cycles_per_image": "cycles",
    "progressive.useful_share": "ratio",
    "service.queue_ms_p50": "ms",
    "service.compute_ms_p50": "ms",
    "service.batch_images_mean": "images",
    "service.cache_hit_share": "ratio",
    "service.retries": "count",
    "frontend.overhead_ms_p50": "ms",
    "fleet.retries": "count",
    "api.load_s": "s",
    "trace.overhead_share": "ratio",
}

#: Stand-in for the latency of a failed call (it misses every limit).
MISSED_MS = 1e9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- host context and guards ---------------------------------------------------


def host_context() -> dict:
    import numpy

    from repro.sc import native

    return {
        "nproc": os.cpu_count(),
        "native": native.describe(),
        "native_active": native.available(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def skip_reason(workload, host: dict) -> str | None:
    if not host["native_active"]:
        return f"native tier inactive ({host['native']})"
    if (host["nproc"] or 1) < workload.parallelism:
        return (
            f"nproc {host['nproc']} is below the workload's parallelism "
            f"{workload.parallelism}"
        )
    return None


def model_sha256() -> str:
    return hashlib.sha256((ARTIFACT / "manifest.json").read_bytes()).hexdigest()


# -- measurement helpers ---------------------------------------------------------


def percentile(values, q: float) -> float:
    import numpy as np

    finite = [min(v, MISSED_MS) for v in values]
    return float(np.percentile(finite, q)) if finite else MISSED_MS


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live children (the fleet workers)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    me = str(os.getpid())
    proc = Path("/proc")
    if proc.is_dir():
        for entry in proc.iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
                if stat[stat.rindex(")") + 2 :].split()[1] != me:
                    continue
                for line in (entry / "status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except (OSError, ValueError, IndexError):
                continue
    return total_kb / 1024.0


def throughput(phase) -> float:
    elapsed = phase.end - phase.start
    return phase.answered_images / elapsed if elapsed > 0 else 0.0


def end_to_end(phase, setups: list[float], rss_mb: float) -> dict:
    calls = phase.calls
    latency = [c.latency_ms for c in calls if c.kind in ("batch", "unary")]
    streams = [c for c in calls if c.kind == "stream"]
    first = [c.first_ms for c in streams] or latency
    whole = [c.latency_ms for c in streams] or latency
    # A stream's length depends on where its image exits; per streamed
    # checkpoint, the time is comparable across seeds.
    per_checkpoint = [
        c.latency_ms / max(1, len(c.events)) for c in streams
    ] or latency
    return {
        "setup_s": statistics.median(setups),
        "images_per_s": throughput(phase),
        "latency_p50_ms": percentile(latency, 50),
        "latency_p90_ms": percentile(latency, 90),
        "latency_samples": len(latency),
        "ttfc_p50_ms": percentile(first, 50),
        "stream_checkpoint_p50_ms": percentile(per_checkpoint, 50),
        "stream_p50_ms": percentile(whole, 50),
        "peak_rss_mb": rss_mb,
    }


def phase_summary(phase) -> dict:
    calls = phase.calls
    lags = [(c.sent - c.due) * 1e3 for c in calls]
    exits = [e for c in calls if c.ok for e in c.exits]
    by_kind: dict[str, int] = {}
    for call in calls:
        by_kind[call.kind] = by_kind.get(call.kind, 0) + 1
    return {
        "seconds": phase.end - phase.start,
        "calls": len(calls),
        "calls_by_kind": by_kind,
        "answered_images": phase.answered_images,
        "failed_calls": sum(1 for c in calls if not c.ok),
        "errors": sorted({c.error for c in calls if c.error})[:5],
        "exhausted_inputs": phase.exhausted,
        "generator_lag_ms": {
            "p50": percentile(lags, 50) if lags else 0.0,
            "p99": percentile(lags, 99) if lags else 0.0,
            "max": max(lags) if lags else 0.0,
        },
        "sim_cycles_per_image": (sum(exits) / len(exits)) if exits else 0.0,
        "latency_ms": {
            kind: [round(c.latency_ms, 3) for c in calls if c.kind == kind]
            for kind in by_kind
        },
    }


# -- runs ---------------------------------------------------------------------------


def run_untraced(workload, images, warm, seconds: float) -> dict:
    setups = []
    handle = None
    for _ in range(SETUPS):
        if handle is not None:
            workload.close(handle)
            handle = None
            # Free the closed stack before the next one is built, so that
            # peak RSS reflects one live stack, not two.
            gc.collect()
        started = time.perf_counter()
        handle = workload.setup(warm, traced=False)
        setups.append(time.perf_counter() - started)
    try:
        workload.warm_up(handle, warm)
        phase = workload.measure(handle, images, seconds)
        rss = peak_rss_mb()
        snapshot = workload.snapshot(handle)
    finally:
        workload.close(handle)
    return {
        "phase": phase,
        "metrics": end_to_end(phase, setups, rss),
        "setups_s": setups,
        "snapshot": snapshot,
    }


def _traced_method(rec, name: str, method):
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return method(*args, **kwargs)

    return wrapper


def run_traced(workload, images, warm, seconds: float, run_dir: Path) -> dict:
    import perfbench_trace as pt

    half = len(images) // 2
    handle = workload.setup(warm, traced=False)
    try:
        workload.warm_up(handle, warm)
        reference = workload.measure(handle, images[:half], seconds / 2)
    finally:
        workload.close(handle)
    handle = None
    gc.collect()

    rec = pt.Recorder("main")
    pt.install(rec)
    fleet = workload.name == "http-fleet-mixed"
    worker_dir = run_dir / "workers"
    if fleet:
        shutil.rmtree(worker_dir, ignore_errors=True)
        worker_dir.mkdir(parents=True)
        workload._unary = _traced_method(rec, "http.unary", workload._unary)
        workload._stream = _traced_method(rec, "http.stream", workload._stream)
        saved_path = os.environ.get("PYTHONPATH")
        hook = str(HERE / "hook")
        os.environ["PYTHONPATH"] = (
            hook if not saved_path else hook + os.pathsep + saved_path
        )
        os.environ["PERFBENCH_TRACE_OUT"] = str(worker_dir)
    try:
        handle = workload.setup(warm, traced=True)
    finally:
        if fleet:
            os.environ.pop("PERFBENCH_TRACE_OUT", None)
            if saved_path is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved_path
    try:
        workload.warm_up(handle, warm)
        phase = workload.measure(handle, images[half:], seconds / 2)
        snapshot = workload.snapshot(handle)
    finally:
        workload.close(handle)
    rec.dump(str(run_dir / "spans-main.json"))

    main_spans = [span.to_dict() for span in rec.spans]
    groups = [main_spans]
    if fleet:
        groups = [
            pt.load_spans(str(path)) for path in sorted(worker_dir.glob("worker-*.json"))
        ]
    missing = list(rec.missing)

    # Counter cross-check: every kernel call the traced entry points saw
    # must be booked by the program's own counters, call for call and
    # byte for byte (fleet: the workers' snapshots).
    traced = pt.kernel_counts([s for group in groups for s in group])
    booked = {
        kernel: {
            tier: {"calls": cell["calls"], "bytes": cell["bytes"]}
            for tier, cell in tiers.items()
        }
        for kernel, tiers in snapshot["kernels"].items()
    }
    cross_check = {"equal": traced == booked, "traced": traced, "booked": booked}

    def in_phase(span) -> bool:
        return span["start"] >= phase.start and span["end"] <= phase.end + 1e-3

    answered = phase.answered_images
    totals = pt.add_totals(
        pt.backend_totals([s for s in group if in_phase(s)]) for group in groups
    )
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(pt.backend_rows(totals, answered))
    exits = [e for c in phase.calls if c.ok for e in c.exits]
    exit_cycles = sum(exits) / max(1, len(exits))
    simulated = metrics["progressive.simulated_cycles_per_image"]
    metrics["progressive.exit_cycles_per_image"] = exit_cycles
    metrics["progressive.useful_share"] = (
        exit_cycles / simulated if simulated else 0.0
    )
    metrics.update(service_rows(workload, phase, groups, snapshot, in_phase))
    loads = [
        s["end"] - s["start"] for group in groups for s in group if s["name"] == "api.load"
    ]
    metrics["api.load_s"] = pt.median(loads)
    # Traced vs untraced per-call latency (the inverse of throughput for
    # the closed loops; the open loop's throughput is its offered rate).
    plain_p50 = end_to_end(reference, [0.0], 0.0)["latency_p50_ms"]
    traced_p50 = end_to_end(phase, [0.0], 0.0)["latency_p50_ms"]
    metrics["trace.overhead_share"] = traced_p50 / plain_p50 - 1.0
    return {
        "phase": phase,
        "reference": reference,
        "metrics": metrics,
        "cross_check": cross_check,
        "missing_entry_points": missing,
        "snapshot": snapshot,
        "named_rows_share": metrics["backend.coverage_share"],
    }


def service_rows(workload, phase, groups, snapshot, in_phase) -> dict:
    """Service, front-end and fleet rows of a traced phase."""
    import perfbench_trace as pt

    spans = [s for group in groups for s in group if in_phase(s)]
    rows: dict[str, float] = {}
    if workload.name == "offline-batch":
        # No service: the request layer is the Session.predict facade.
        # Its "queue" is the time before the backend forward starts.
        by_parent = {
            (s["request"], s["parent"]): s for s in spans if s["name"] == "forward"
        }
        queue, compute, overhead = [], [], []
        for span in spans:
            if span["name"] != "api.predict":
                continue
            child = by_parent.get((span["request"], span["id"]))
            if child is None:
                continue
            queue.append((child["start"] - span["start"]) * 1e3)
            compute.append((span["end"] - child["start"]) * 1e3)
            overhead.append(
                ((span["end"] - span["start"]) - (child["end"] - child["start"])) * 1e3
            )
        rows["service.queue_ms_p50"] = pt.median(queue)
        rows["service.compute_ms_p50"] = pt.median(compute)
        rows["service.batch_images_mean"] = (
            phase.answered_images / max(1, len(phase.calls))
        )
        rows["frontend.overhead_ms_p50"] = pt.median(overhead)
        return rows
    submits = [s for s in spans if s["name"] == "service.submit"]
    rows["service.queue_ms_p50"] = pt.median(
        s["attrs"].get("queue_ms") for s in submits
    )
    rows["service.compute_ms_p50"] = pt.median(
        s["attrs"].get("compute_ms") for s in submits
    )
    services = snapshot["services"]
    batches = sum(s["batches"] for s in services)
    rows["service.batch_images_mean"] = (
        sum(s["mean_batch_size"] * s["batches"] for s in services) / batches
        if batches
        else 0.0
    )
    images = sum(s["images"] for s in services)
    rows["service.cache_hit_share"] = (
        sum(s["cache_hits"] for s in services) / images if images else 0.0
    )
    rows["service.retries"] = float(
        sum(s["faults"]["retries"] for s in services)
    )
    unary = [c for c in phase.calls if c.ok and c.kind == "unary"]
    rows["frontend.overhead_ms_p50"] = pt.median(
        (c.done - c.sent) * 1e3 - c.served_ms for c in unary
    )
    if snapshot["fleet"] is not None:
        rows["fleet.retries"] = float(snapshot["fleet"]["retries"])
    return rows


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not (ARTIFACT / "manifest.json").is_file():
        print(
            "perfbench: run from the root of a checkout holding src/repro "
            "and perfbench/model",
            file=sys.stderr,
        )
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    # Program warnings (worker deaths, fallbacks) go to stderr; stdout
    # carries the benchmark's own lines and the result.
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    # The compiled kernel cache stays inside the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "native")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE / "hook"))

    from oracle import check_answers
    from workloads import WORKLOADS, digit_images

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(known: {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](str(ARTIFACT), args.seed)
    host = host_context()
    sha = model_sha256()
    print(
        f"perfbench: {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={host['nproc']} {host['native']} "
        f"numpy {host['numpy']} python {host['python']} model {sha[:12]}"
    )
    reason = skip_reason(workload, host)
    if reason is None and sha != MODEL_SHA256:
        reason = f"model manifest sha256 {sha} is not the benchmark's model"
    if reason is not None:
        print(json.dumps({"skipped": reason, "workload": workload.name, "host": host}))
        return 3

    budget = workload.image_budget(args.seconds)
    images = digit_images(args.seed, budget + workload.warm_images)
    warm, images = images[budget:], images[:budget]
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        record = run_traced(workload, images, warm, args.seconds, run_dir)
        images = images[len(images) // 2 :]
    else:
        record = run_untraced(workload, images, warm, args.seconds)
    phase = record["phase"]
    oracle = check_answers(
        str(ARTIFACT), images, phase.calls, args.seed, workload.early_exit
    )
    failed_calls = sum(1 for call in phase.calls if not call.ok)
    attempted = max(1, len(phase.calls))
    failed = failed_calls + oracle["wrong"]
    correct = oracle["wrong"] == 0 and failed_calls == 0
    if args.trace:
        correct = (
            correct
            and record["cross_check"]["equal"]
            and not record["missing_entry_points"]
        )
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(record["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    detail = {
        "end_to_end_extra": {
            k: v for k, v in record["metrics"].items() if k not in PER_LAYER
            and k not in END_TO_END
        },
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "model_sha256": sha,
        "phase": phase_summary(phase),
        "error_rate": failed / attempted,
        "oracle": oracle,
        "metrics": metrics,
        "setups_s": record.get("setups_s"),
        "snapshot": record["snapshot"],
    }
    if args.trace:
        detail["reference_phase"] = phase_summary(record["reference"])
        detail["cross_check"] = record["cross_check"]
        detail["missing_entry_points"] = record["missing_entry_points"]
    with open(run_dir / "result.json", "w") as handle:
        json.dump(detail, handle, indent=1, default=str)
    summary = detail["phase"]
    print(
        f"perfbench: {summary['calls']} calls, {summary['answered_images']} images "
        f"in {summary['seconds']:.2f} s, error_rate {detail['error_rate']:.4f}, "
        f"oracle {oracle['checked']} checked / {oracle['wrong']} wrong, "
        f"generator lag p50 {summary['generator_lag_ms']['p50']:.2f} ms "
        f"max {summary['generator_lag_ms']['max']:.2f} ms, "
        f"sim_cycles_per_image {summary['sim_cycles_per_image']:.1f}"
    )
    if args.trace:
        print(
            f"perfbench: kernel counters {'equal' if record['cross_check']['equal'] else 'DIFFER'}, "
            f"named rows cover {record['named_rows_share']:.3f} of backend.forward_ms"
        )
    print(f"perfbench: details in {run_dir.relative_to(ROOT)}/result.json")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
