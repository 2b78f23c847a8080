"""Distributed-sweep benchmark (``BENCH_distributed.json``).

Quantifies the two claims the queue backend makes:

1. **Scaling** — the same grid swept through ``backend="queue"`` at
   1, 2 and 4 workers (counts above ``os.cpu_count()`` are dropped),
   with a fixed per-cell service-time floor
   injected through the fault plan (``delay@every:1``).  On a
   single-core container the *compute* cannot parallelize, but the
   service floor models the I/O- and memory-bound stalls that
   dominate real characterization cells, and those overlap across
   worker processes exactly like blocking I/O would.  The report
   records the machine's ``cpu_count`` and the injected floor so the
   numbers cannot be mistaken for CPU-bound speedup.  Every run
   writes a checkpoint; the digests are recorded per worker count so
   the report doubles as evidence the backends are bit-identical.

2. **Out-of-core profiling** — peak RSS of profiling a ``.mtx`` file
   much larger than the streaming memory budget, measured in child
   processes via ``resource.getrusage``, for the materializing path
   (``read_matrix_market`` + ``profile_table``) and the streaming
   path (``streaming_profile_table``).

``repro bench distributed`` runs both as a ``bench/v2`` suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Sequence

from .analysis import format_table
from .engine import SweepRunner, WorkloadSpec, checkpoint_digest
from .engine.distributed import QueueOptions
from .envelope import Gate, Param, Suite
from .errors import SimulationError
from .formats.registry import PAPER_FORMATS

__all__ = [
    "SUITE",
    "bench_queue_scaling",
    "bench_streaming_rss",
    "distributed_sections",
    "scaling_specs",
    "usable_worker_counts",
]

#: Speedup floor at two workers a full run must clear.
SCALING_GATE_2_WORKERS = 1.7

#: Streaming-profile memory budget; the out-of-core matrix's triplets
#: must exceed it for the RSS comparison to mean anything.
MEMORY_BUDGET_MB = 8.0


def scaling_specs(
    n: int = 48, n_workloads: int = 8, seed: int = 10
) -> list[WorkloadSpec]:
    """A grid of small, cheap-to-build workload specs.

    Alternates random and band recipes so the queue's digest sharding
    spreads chunks across shards rather than clustering one kind.
    Workload ``i`` is generated with ``seed + i``.
    """
    specs: list[WorkloadSpec] = []
    for index in range(n_workloads):
        if index % 2 == 0:
            density = 0.02 + 0.02 * (index // 2)
            specs.append(
                WorkloadSpec.random(n, density, seed=seed + index)
            )
        else:
            width = 4 << (index // 2)
            specs.append(
                WorkloadSpec.band(n, width, seed=seed + index)
            )
    return specs


def bench_queue_scaling(
    worker_counts: Sequence[int] = (1, 2, 4),
    cell_cost_s: float = 0.25,
    n: int = 48,
    n_workloads: int = 8,
    formats: Sequence[str] = PAPER_FORMATS,
    partitions: Sequence[int] = (8,),
    lease_timeout_s: float = 30.0,
    seed: int = 10,
) -> dict:
    """Sweep one grid through the queue backend at each worker count.

    The fault plan ``delay@every:1#delay=...#times=none`` injects the
    same service-time floor into every cell attempt, so the serial
    wall time is ``n_cells * cell_cost_s`` plus overhead and the
    ideal speedup at ``w`` workers is ``w``.
    """
    if cell_cost_s <= 0:
        raise SimulationError(
            f"cell_cost_s must be > 0, got {cell_cost_s}"
        )
    specs = scaling_specs(n, n_workloads, seed)
    faults = f"delay@every:1#delay={cell_cost_s}#times=none"
    n_cells = len(specs) * len(formats) * len(partitions)
    rows: list[dict] = []
    base_wall: float | None = None
    with tempfile.TemporaryDirectory(prefix="bench-queue-") as tmp:
        for workers in worker_counts:
            checkpoint = Path(tmp) / f"w{workers}.jsonl"
            runner = SweepRunner(
                max_workers=workers,
                backend="queue",
                error_policy="fail_fast",
                faults=faults,
                checkpoint=checkpoint,
                queue_options=QueueOptions(
                    lease_timeout_s=lease_timeout_s
                ),
            )
            start = time.perf_counter()
            outcome = runner.run_grid(
                specs, list(formats), partition_sizes=list(partitions)
            )
            wall = time.perf_counter() - start
            if len(outcome.results) != n_cells:
                raise SimulationError(
                    f"queue sweep at {workers} workers returned "
                    f"{len(outcome.results)} cells, expected {n_cells}"
                )
            if base_wall is None:
                base_wall = wall
            rows.append({
                "workers": workers,
                "wall_s": wall,
                "cells_per_s": n_cells / wall,
                "speedup_vs_1": base_wall / wall,
                "checkpoint_digest": checkpoint_digest(checkpoint),
            })
    ideal_serial_s = n_cells * cell_cost_s
    return {
        "cell_cost_s": cell_cost_s,
        "n_workloads": len(specs),
        "formats": list(formats),
        "partitions": [int(p) for p in partitions],
        "n_cells": n_cells,
        "n_chunks": len(specs),
        "ideal_serial_s": ideal_serial_s,
        "digests_identical": len(
            {row["checkpoint_digest"] for row in rows}
        ) == 1,
        "rows": rows,
    }


#: Child-process probe: profile one .mtx and report its peak RSS.
#: ``ru_maxrss`` is KiB on Linux, covering the whole interpreter, so
#: both modes pay the same baseline and the delta is the data.
_RSS_PROBE = """\
import json, resource, sys
path, mode, p, budget = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
)
if mode == "stream":
    from repro.io import streaming_profile_table
    table = streaming_profile_table(path, p, memory_budget_mb=budget)
else:
    from repro.io import read_matrix_market
    from repro.partition import profile_table
    table = profile_table(read_matrix_market(path), p)
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "n_tiles": int(table.n_tiles),
    "nnz": int(table.nnz.sum()),
    "peak_rss_kib": int(peak_kib),
}))
"""


def _write_band_mtx(path: Path, n: int, width: int) -> int:
    """Stream a band ``.mtx`` to disk without materializing it.

    Returns the entry count.  Row-by-row generation keeps the writer
    itself out-of-core, so the benchmark can emit files bigger than
    the budget it is about to test against.
    """
    half = width // 2
    n_entries = sum(
        min(n - 1, i + half) - max(0, i - half) + 1 for i in range(n)
    )
    with open(path, "w", encoding="ascii") as stream:
        stream.write(
            "%%MatrixMarket matrix coordinate real general\n"
        )
        stream.write(f"{n} {n} {n_entries}\n")
        lines: list[str] = []
        for i in range(n):
            row = i + 1
            for j in range(max(0, i - half), min(n - 1, i + half) + 1):
                lines.append(f"{row} {j + 1} 1.0\n")
            if len(lines) >= 65536:
                stream.write("".join(lines))
                lines.clear()
        stream.write("".join(lines))
    return n_entries


def _probe_rss(path: Path, mode: str, p: int, budget_mb: float) -> dict:
    src = str(Path(__file__).resolve().parent.parent)
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", _RSS_PROBE,
            str(path), mode, str(p), str(budget_mb),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise SimulationError(
            f"rss probe ({mode}) failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def bench_streaming_rss(
    n: int = 20000,
    width: int = 101,
    p: int = 64,
    memory_budget_mb: float = MEMORY_BUDGET_MB,
) -> dict:
    """Peak-RSS comparison of materializing vs streaming profiling."""
    with tempfile.TemporaryDirectory(prefix="bench-rss-") as tmp:
        path = Path(tmp) / "band.mtx"
        n_entries = _write_band_mtx(path, n, width)
        file_bytes = path.stat().st_size
        rows = []
        for mode in ("materialize", "stream"):
            probe = _probe_rss(path, mode, p, memory_budget_mb)
            if probe["nnz"] != n_entries:
                raise SimulationError(
                    f"rss probe ({mode}) profiled {probe['nnz']} "
                    f"entries, expected {n_entries}"
                )
            rows.append({"mode": mode, **probe})
    by_mode = {row["mode"]: row for row in rows}
    triplet_mb = n_entries * 24 / (1 << 20)
    stream_kib = by_mode["stream"]["peak_rss_kib"]
    return {
        "n": n,
        "width": width,
        "p": p,
        "n_entries": n_entries,
        "file_mb": file_bytes / (1 << 20),
        "triplet_mb": triplet_mb,
        "memory_budget_mb": memory_budget_mb,
        "rows": rows,
        "rss_reduction": (
            by_mode["materialize"]["peak_rss_kib"] / stream_kib
            if stream_kib else float("inf")
        ),
    }


def usable_worker_counts(
    worker_counts: Sequence[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split ``worker_counts`` into (kept, dropped) by ``os.cpu_count()``.

    A worker count above the machine's CPUs cannot show real parallel
    scaling, so the suite never runs (or reports) one.
    """
    cap = os.cpu_count() or 1
    kept = tuple(w for w in worker_counts if w <= cap)
    dropped = tuple(w for w in worker_counts if w > cap)
    return kept, dropped


def distributed_sections(
    seed: int,
    workers: Sequence[int],
    cell_cost_s: float,
    n_workloads: int,
    formats: Sequence[str],
    rss_n: int,
    rss_width: int,
) -> dict:
    """Run both sections of the distributed suite.

    Worker counts above ``os.cpu_count()`` are dropped before anything
    runs; the report's ``config`` records the cap and what it dropped.
    """
    kept, dropped = usable_worker_counts(workers)
    if not kept:
        raise SimulationError(
            f"no worker count in {list(workers)} fits this machine's "
            f"{os.cpu_count() or 1} CPU(s)"
        )
    scaling = bench_queue_scaling(
        worker_counts=kept,
        cell_cost_s=cell_cost_s,
        n_workloads=n_workloads,
        formats=tuple(formats),
        seed=seed,
    )
    streaming = bench_streaming_rss(n=rss_n, width=rss_width)
    by_workers = {row["workers"]: row for row in scaling["rows"]}
    speedup_2 = (
        by_workers[2]["speedup_vs_1"] if 2 in by_workers else None
    )
    return {
        "config": {
            "cpu_cap": os.cpu_count() or 1,
            "workers_dropped": list(dropped),
        },
        "scaling": scaling,
        "streaming": streaming,
        "summary": {
            "speedup_2_workers": speedup_2,
            "speedup_max_workers": by_workers[max(by_workers)][
                "speedup_vs_1"
            ],
            "digests_identical": scaling["digests_identical"],
            "rss_reduction": streaming["rss_reduction"],
        },
    }


def _describe(report: dict) -> list[str]:
    scaling = report["scaling"]
    rows = [
        [
            row["workers"],
            row["wall_s"],
            row["cells_per_s"],
            row["speedup_vs_1"],
            row["checkpoint_digest"][:12],
        ]
        for row in scaling["rows"]
    ]
    streaming = report["streaming"]
    lines = [
        format_table(
            ["workers", "wall s", "cells/s", "speedup", "digest"],
            rows,
            title=(
                f"Queue scaling, {scaling['n_cells']} cells, "
                f"{scaling['cell_cost_s']:g}s service floor"
            ),
        ),
        "",
        f"out-of-core: {streaming['triplet_mb']:.1f} MB of triplets "
        f"profiled under a {streaming['memory_budget_mb']:g} MB "
        f"budget, peak RSS reduced "
        f"{report['summary']['rss_reduction']:.1f}x",
    ]
    dropped = report["config"]["workers_dropped"]
    if dropped:
        lines.append(
            f"worker counts {dropped} dropped: above this machine's "
            f"{report['config']['cpu_cap']} CPU(s)"
        )
    return lines


_GATES = (
    Gate("digests_identical", "summary.digests_identical", "==", True),
    Gate("rss_reduced", "summary.rss_reduction", ">", 1.0),
    Gate(
        "speedup_2_workers", "summary.speedup_2_workers", ">=",
        SCALING_GATE_2_WORKERS,
    ),
    Gate("out_of_core", "streaming.triplet_mb", ">", MEMORY_BUDGET_MB),
)

#: ``repro bench distributed``.  Quick runs keep only the digest gate:
#: they are too short for the scaling gate (process startup
#: dominates), and their matrix fits the streaming budget by design,
#: so its peak-RSS comparison shows nothing.
SUITE = Suite(
    name="distributed",
    help="measure queue-backend scaling and out-of-core peak RSS",
    seed=10,
    output="BENCH_distributed.json",
    params=(
        Param("workers", (1, 2, 4), "queue worker counts",
              quick=(1, 2), option=None),
        Param("cell_cost_s", 0.25, "per-cell service floor",
              quick=0.05, option=None),
        Param("n_workloads", 8, "workloads in the scaling grid",
              quick=4, option=None),
        Param("formats", tuple(PAPER_FORMATS), "scaling-grid formats",
              quick=("csr", "coo"), option=None),
        Param("rss_n", 20000, "out-of-core band matrix dimension",
              quick=4000, option=None),
        Param("rss_width", 101, "out-of-core band width",
              quick=21, option=None),
    ),
    body=distributed_sections,
    gates=_GATES,
    quick_gates=_GATES[:1],
    describe=_describe,
)
