"""Benchmark entry point: one workload, one seed, one process.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload rpc-read --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` it
holds the end-to-end metrics (host-normalised, see ``host.py``); the line
before it holds diagnostics: the host fingerprint and every metric
unnormalised.  With ``--trace 1`` the run is a separate traced run whose
metrics are the per-layer ones (see ``tracing.py``), and its spans are
written to ``perfbench/out/``.  Exits non-zero without a result when the
program's sources are missing or the run fails.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("rpc-read", "batch-warm", "onboard-cold", "churn-rw")


def _pin_to_one_cpu():
    """Run every thread of this process on one CPU; returns it (or None).

    The rpc-read client, the server's event-loop thread and its worker
    thread hand each request over three times.  Left free, those hand-overs
    cross CPUs, and the wake-up latency of the other CPU became the
    measurement: unpinned p90 ranged 2.2-4.9 ms between runs of one seed,
    pinned 0.64-0.88 ms (NOISE.md).  The benchmark measures none of the
    parallel lanes, so one CPU loses nothing it measures.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _import_program():
    """Import the program from this checkout's ``src``, never from elsewhere."""
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SOURCE_DIR}")
    sys.path.insert(0, str(SOURCE_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE_DIR / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _attempt(workload, index, item):
    """Run one operation; returns ``(seconds, answer, ok)``."""
    start = perf_counter()
    try:
        answer = workload.run(item)
    except Exception:
        seconds = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return seconds, None, False
    return perf_counter() - start, answer, True


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float):
    """The untraced run: ``setup_repeats`` segments, each a set-up then operations.

    Spreading the set-ups over the run, instead of doing them back to
    back, lets ``setup_s`` (their median) see the same mix of host states
    as the operations.  Every segment gets an equal share of ``seconds``.
    """
    from host import Calibrator, fingerprint

    calibrator = Calibrator()
    setup_raw = []
    latencies = []
    failed = set()
    index = 0
    for segment in range(workload.setup_repeats):
        if segment:
            workload.teardown()
        gc.collect()
        start = perf_counter()
        workload.setup()
        setup_raw.append(perf_counter() - start)
        gc.collect()
        calibrator.sample()
        deadline = perf_counter() + seconds / workload.setup_repeats
        while True:
            item = workload.next_input(index)
            elapsed, answer, ok = _attempt(workload, index, item)
            latencies.append(elapsed)
            if not ok or not workload.record(index, item, answer):
                failed.add(index)
            index += 1
            now = perf_counter()
            if now >= deadline:
                break
            calibrator.maybe_sample(now)
    calibrator.sample()
    peak_rss = _peak_rss_mb()
    workload.teardown()
    failed.update(workload.check())

    raw = _timings(statistics.median(setup_raw), latencies)
    factors = calibrator.factors()
    normalised = {
        "setup_s": raw["setup_s"] * factors["median"],
        "p50_ms": raw["p50_ms"] * factors["median"],
        "p90_ms": raw["p90_ms"] * factors["p90"],
        "p99_ms": raw["p99_ms"] * factors["p99"],
        "ops_per_s": raw["ops_per_s"] / factors["mean"],
    }
    attempted = len(latencies)
    metrics = {
        "setup_s": (normalised["setup_s"], "s"),
        "p50_ms": (normalised["p50_ms"], "ms"),
        "p90_ms": (normalised["p90_ms"], "ms"),
        "ops_per_s": (normalised["ops_per_s"], "1/s"),
        "ok_ratio": ((attempted - len(failed)) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    diagnostics = {
        "host": fingerprint(calibrator),
        "raw": raw,
        "normalised": normalised,
        "setup_raw_s": setup_raw,
        "checked": len(workload.records),
    }
    return attempted, sorted(failed), metrics, diagnostics


def _timings(setup_s: float, latencies) -> dict:
    """``setup_s`` plus the operation-latency summary of one run.

    Every segment runs at least one operation, so there are always the
    two latencies ``statistics.quantiles`` needs.
    """
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "setup_s": setup_s,
        "p50_ms": cuts[49] * 1000.0,
        "p90_ms": cuts[89] * 1000.0,
        "p99_ms": cuts[98] * 1000.0,
        "ops_per_s": len(latencies) / sum(latencies),
    }


def _oracle_stats(service) -> dict:
    if service is None:
        return {}
    stats = service.cache_stats()["distance_oracle"]
    return {key: stats[key] for key in ("hits", "misses", "invalidated")}


def _rebind_counts(service) -> dict:
    family = None if service is None else service.metrics.get("repro_rebind_total")
    if family is None:
        return {}
    return {key[0]: child.value for key, child in family.children()}


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def trace_run(workload, seed: int):
    """The traced run: traced set-ups, then three kinds of operations in turn.

    Operations rotate untraced, span-traced and counted, ``trace_ops`` of
    each.  A fixed operation count makes the per-layer counts repeat
    exactly for a seed; the rotation lets all three kinds see the same
    host.  ``trace.overhead_ratio`` is the median span-traced wall time
    over the median untraced one.  The set-up runs twice, once under spans
    and once under counters, so that classification at set-up shows in
    both.
    """
    from host import Calibrator
    from tracing import Tracer, count_patches, layer_metrics, span_patches

    tracer = Tracer()
    spans = span_patches(tracer)
    counters = count_patches(tracer)
    tracer.request = "setup"
    for patches in (spans, counters):
        workload.teardown()
        gc.collect()
        patches.install()
        token = tracer.open() if patches is spans else None
        try:
            workload.setup()
        finally:
            if token is not None:
                tracer.close("setup", token)
            patches.remove()
    counts_at_setup = dict(tracer.counts)

    calibrator = Calibrator()
    walls = {"untraced": [], "spans": []}
    failed = set()
    oracle = {"hits": 0, "misses": 0, "invalidated": 0}
    rebinds = {}
    gc.collect()
    calibrator.sample()
    for index in range(3 * workload.trace_ops):
        mode = ("untraced", "spans", "counts")[index % 3]
        item = workload.next_input(index)
        if mode == "counts":
            service = workload.serving_service()
            oracle_before = _oracle_stats(service)
            rebinds_before = _rebind_counts(service)
            counters.install()
        elif mode == "spans":
            tracer.request = index
            spans.install()
            token = tracer.open()
        elapsed, answer, ok = _attempt(workload, index, item)
        if mode == "spans":
            tracer.close("op", token)
            spans.remove()
        elif mode == "counts":
            counters.remove()
            after = workload.serving_service()
            if after is not service:
                oracle_before = {}
            for key, value in _delta(_oracle_stats(after), oracle_before).items():
                oracle[key] += value
            for key, value in _delta(_rebind_counts(after), rebinds_before).items():
                rebinds[key] = rebinds.get(key, 0) + value
        if mode in walls:
            walls[mode].append(elapsed)
        if not ok or not workload.record(index, item, answer):
            failed.add(index)
        calibrator.maybe_sample(perf_counter())
    workload.teardown()
    failed.update(workload.check())

    op_counts = tracer.counts.copy()
    op_counts["graphs.add_edge"] -= counts_at_setup.get("graphs.add_edge", 0)
    metrics = layer_metrics(
        tracer.spans,
        op_counts,
        ops=workload.trace_ops,
        queries=workload.trace_ops * workload.queries_per_op,
        factor=calibrator.factors()["median"],
        oracle=oracle,
        rebinds=rebinds,
    )
    metrics["host.cal_ms"] = {"value": calibrator.median_ms(), "unit": "ms"}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(walls["spans"]) / statistics.median(walls["untraced"]),
        "unit": "ratio",
    }
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}-{seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "fields": ["id", "name", "start", "end", "parent", "request"],
                "spans": tracer.spans,
                "counts": dict(tracer.counts),
            }
        )
    )
    attempted = 3 * workload.trace_ops
    return attempted, sorted(failed), metrics, {"trace_file": str(trace_file)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cpu = _pin_to_one_cpu()
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            result = trace_run(workload, args.seed)
        else:
            result = measure(workload, args.seconds)
    finally:
        workload.teardown()
    attempted, failed, metrics, diagnostics = result
    if not args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    diagnostics["pinned_cpu"] = cpu
    print(json.dumps({"workload": args.workload, "seed": args.seed, **diagnostics}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
