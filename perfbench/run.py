"""The repository benchmark: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload advise-exact --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced and then traced for half the
time each and reports the per-layer metrics, including the tracing
overhead; its spans are written to ``.perfbench/``.  Human-readable
lines come first; the last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  Times other
than set-up are scaled to a reference machine speed that a probe,
interleaved with the operations, measures.

Workload names, metric definitions and the layer -> end-to-end map
are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(
        "advise-exact", "sweep-checkpoint", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# ----------------------------------------------------------------------
def end_to_end(workload, phase, setup_s: float, rss_mb: float,
               wrong: int) -> tuple:
    """The end-to-end metrics, times scaled to the reference speed.

    ``tail_ms`` is a fixed nearest-rank percentile of one latency class,
    both set by the workload (``workload.tail``), so its meaning does
    not depend on how many operations fit in the run.  With a window,
    it is the median of that percentile over consecutive windows of
    that many samples (all samples when there are fewer).
    """
    from repro.serve.loadgen import percentile

    tail_class, tail_pct, window = workload.tail

    def tail(values: list[float]) -> float:
        if window is None or len(values) < window:
            return percentile(values, tail_pct)
        return statistics.median(
            percentile(values[i:i + window], tail_pct)
            for i in range(0, len(values) - window + 1, window)
        )

    def timings(latencies: dict, work_s: float) -> dict:
        ms = {
            kind: [s * 1000.0 for s in latencies.get(kind, ())]
            for kind in ("primary", "light", "heavy", tail_class)
        }
        if not all(ms.values()):
            raise RuntimeError("a latency class got no samples; run longer")
        return {
            "p50_ms": (percentile(ms["primary"], 50), "ms"),
            "tail_ms": (tail(ms[tail_class]), "ms"),
            "throughput_per_s": (phase.work / work_s, "1/s"),
            "light_p50_ms": (percentile(ms["light"], 50), "ms"),
            "heavy_p50_ms": (percentile(ms["heavy"], 50), "ms"),
        }

    failed = phase.failed + wrong
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": (1.0 - failed / phase.attempted, "ratio"),
        **timings(phase.latencies, phase.work_s),
    }
    unscaled = timings(phase.unscaled, phase.unscaled_work_s)
    notes = {
        "tail": {
            "class": tail_class,
            "percentile": tail_pct,
            "window": window,
            "samples": len(phase.latencies[tail_class]),
        },
        "samples": {k: len(v) for k, v in phase.latencies.items()},
        "speed": phase.speed(),
        "probes": len(phase.probe_s),
        "unscaled": {k: v for k, (v, _) in unscaled.items()},
    }
    return metrics, failed, notes


def per_layer(untraced, traced, tracer) -> tuple[dict, dict]:
    from tracing import self_times

    self_s, total_s, count = self_times(tracer.spans)
    counts = tracer.counts
    ops = traced.attempted
    speed = traced.speed()
    for times in (self_s, total_s):
        for name in times:
            times[name] *= speed

    def per_op(value: float) -> float:
        return value / ops

    hits, misses = counts["engine.cache_hits"], counts["engine.cache_misses"]
    cells = counts["engine.cells"]
    ck_cells = traced.extra.get("checkpoint_cells", 0)
    metrics = {
        "workloads.build_s": (per_op(self_s["workloads.build"]), "s/op"),
        "partition.profile_s": (per_op(self_s["partition.profile"]), "s/op"),
        "partition.calls": (per_op(count["partition.profile"]), "count/op"),
        "partition.tiles": (per_op(counts["partition.tiles"]), "count/op"),
        "hardware.pipeline_s": (per_op(self_s["hardware.pipeline"]), "s/op"),
        "hardware.pipeline_calls": (
            per_op(count["hardware.pipeline"]), "count/op"),
        "hardware.estimate_s": (per_op(self_s["hardware.estimate"]), "s/op"),
        "core.run_format_self_s": (
            per_op(self_s["core.run_format"]), "s/op"),
        "core.rank_s": (per_op(self_s["core.rank"]), "s/op"),
        "engine.runner_self_s": (per_op(self_s["engine.runner"]), "s/op"),
        "engine.cache_hits": (per_op(hits), "count/op"),
        "engine.cache_misses": (per_op(misses), "count/op"),
        "engine.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "engine.checkpoint_write_s": (
            per_op(self_s["engine.checkpoint_write"]), "s/op"),
        "engine.checkpoint_bytes_per_cell": (
            traced.extra.get("checkpoint_bytes", 0) / ck_cells
            if ck_cells else 0.0, "B/cell"),
        "engine.checkpoint_load_s": (
            per_op(self_s["engine.checkpoint_load"]), "s/op"),
        "engine.cells": (per_op(cells), "count/op"),
        "engine.cells_replayed": (
            per_op(cells - count["core.run_format"]), "count/op"),
    }
    metrics.update(_serve_layers(traced, total_s, ops, speed))
    metrics["bench.tracing_overhead_ratio"] = (
        (traced.work_s / traced.work) / (untraced.work_s / untraced.work),
        "ratio")
    notes = {"spans": len(tracer.spans), "ops": ops, "speed": speed}
    return metrics, notes


def _serve_layers(traced, total_s, ops, speed: float) -> dict:
    parse_s = total_s["serve.parse"]
    backend_s = total_s["serve.backend"]
    server_s = hit_ratio = coalesce = computations = transport = 0.0
    if "metrics" in traced.extra:
        before, after = traced.extra["metrics"]

        def delta(name: str) -> int:
            return after["counters"].get(name, 0) - before["counters"].get(
                name, 0)

        timer_a = after["timers"].get("serve.request", {})
        timer_b = before["timers"].get("serve.request", {})
        server_s = speed * (
            timer_a.get("total_s", 0.0) - timer_b.get("total_s", 0.0))
        hits, misses = delta("serve.cache.hits"), delta("serve.cache.misses")
        hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        coalesce = delta("serve.coalesce.hits")
        computations = (after["extra"]["server"]["computations"]
                        - before["extra"]["server"]["computations"])
        transport = (
            speed * sum(traced.unscaled.get("primary", ())) - server_s)
    return {
        "serve.parse_s": (parse_s / ops, "s/op"),
        "serve.backend_s": (backend_s / ops, "s/op"),
        "serve.server_s": (server_s / ops, "s/op"),
        "serve.transport_s": (transport / ops, "s/op"),
        "serve.wait_s": (
            (server_s - parse_s - backend_s) / ops if server_s else 0.0,
            "s/op"),
        "serve.cache_hit_ratio": (hit_ratio, "ratio"),
        "serve.coalesce_hits": (coalesce / ops, "count/op"),
        "serve.computations": (computations / ops, "count/op"),
        "serve.refused": (traced.extra.get("refused", 0) / ops, "count/op"),
    }


def environment(workload) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "load": "closed loop",
        "clients": workload.clients,
        "server_threads": workload.server_threads,
    }


def timed_import() -> float:
    """Seconds a fresh interpreter takes to import the program and
    the benchmark's workload module."""
    code = (
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, "
        f"{str(ROOT / 'perfbench')!r}]; import workloads"
    )
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - started


def measure(workload, seconds: float):
    """Time the workload, starting from a clean garbage-collector state
    so set-up garbage is not collected inside the timed loop."""
    gc.collect()
    return workload.measure(seconds)


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports the program
    from inputs import recipe_digest

    kind = workloads.WORKLOADS[args.workload]
    if max(kind.clients, kind.server_threads) > nproc():
        print(
            f"error: refusing to start {args.workload}: it runs "
            f"{kind.clients} clients and {kind.server_threads} server "
            f"threads, but nproc is {nproc()}; this benchmark claims no "
            "parallel scaling", file=sys.stderr,
        )
        return 2
    # Set-up is timed like the operations: scaled by the speed probe,
    # sampled between the repetitions.
    probes = [workloads.probe_sample()]
    imports = []
    for _ in range(SETUP_REPEATS):
        imports.append(timed_import())
        probes.append(workloads.probe_sample())
    workload = kind(args.seed)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
            probes.append(workloads.probe_sample())
        setup_unscaled_s = statistics.median(imports) + statistics.median(
            setups)
        setup_speed = workloads.PROBE_REF_S / statistics.median(probes)
        setup_s = setup_unscaled_s * setup_speed
        if args.trace:
            from tracing import Instrument, Tracer

            half = args.seconds / 2
            untraced = measure(workload, half)
            tracer = Tracer()
            with Instrument(tracer):
                traced = measure(workload, half)
            tracer.write(workloads.WORK_DIR / (
                f"trace-{args.workload}-seed{args.seed}.jsonl"))
            wrong = workload.verify()
            metrics, notes = per_layer(untraced, traced, tracer)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed + wrong
        else:
            phase = measure(workload, args.seconds)
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wrong = workload.verify()
            metrics, failed, notes = end_to_end(
                workload, phase, setup_s, rss_mb, wrong)
            attempted = phase.attempted
    finally:
        workload.close()
    notes["setup_unscaled_s"] = setup_unscaled_s
    notes["setup_speed"] = setup_speed

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "recipe_digest": recipe_digest(args.workload, args.seed),
        "environment": environment(workload),
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:34s} {value:14.6g} {unit}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
