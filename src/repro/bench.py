"""Scalar-vs-batch pipeline benchmark.

Times :meth:`~repro.hardware.pipeline.StreamingPipeline.run` (the
struct-of-arrays batch path) against
:meth:`~repro.hardware.pipeline.StreamingPipeline.run_scalar` (the
per-profile reference loop) on paper-scale synthetic workloads, checks
the two agree bit for bit, and reports throughput as cells/sec (matrix
cells swept per second) and tiles/sec (non-zero partitions timed per
second).

``repro bench pipeline`` runs it as a ``bench/v2`` suite and writes
``BENCH_pipeline.json``; the one gate is that the batch path is never
slower than the scalar reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from .analysis import format_table
from .envelope import Gate, Param, Suite
from .errors import SimulationError
from .formats.registry import PAPER_FORMATS
from .hardware.config import HardwareConfig
from .hardware.pipeline import StreamingPipeline
from .matrix import SparseMatrix
from .partition import profile_table
from .workloads import band_matrix, random_matrix

__all__ = ["BenchResult", "SUITE", "bench_pipeline", "pipeline_sections"]


@dataclass(frozen=True)
class BenchResult:
    """One (workload, format) scalar-vs-batch timing comparison."""

    workload: str
    format_name: str
    partition_size: int
    n: int
    nnz: int
    n_tiles: int
    scalar_s: float
    batch_s: float

    @property
    def speedup(self) -> float:
        if self.batch_s == 0:
            return float("inf")
        return self.scalar_s / self.batch_s

    @property
    def cells(self) -> int:
        """Matrix cells covered by one pipeline evaluation."""
        return self.n * self.n

    @property
    def batch_cells_per_s(self) -> float:
        return self.cells / self.batch_s if self.batch_s else float("inf")

    @property
    def scalar_cells_per_s(self) -> float:
        return (
            self.cells / self.scalar_s if self.scalar_s else float("inf")
        )

    @property
    def batch_tiles_per_s(self) -> float:
        return (
            self.n_tiles / self.batch_s if self.batch_s else float("inf")
        )

    @property
    def scalar_tiles_per_s(self) -> float:
        return (
            self.n_tiles / self.scalar_s if self.scalar_s else float("inf")
        )

    def as_dict(self) -> dict:
        record = asdict(self)
        record.update(
            speedup=self.speedup,
            cells=self.cells,
            batch_cells_per_s=self.batch_cells_per_s,
            scalar_cells_per_s=self.scalar_cells_per_s,
            batch_tiles_per_s=self.batch_tiles_per_s,
            scalar_tiles_per_s=self.scalar_tiles_per_s,
        )
        return record


def _best_time(run: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``run`` (min filters noise)."""
    best = math.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_workloads(
    n: int, density: float, band_width: int, seed: int
) -> list[tuple[str, SparseMatrix]]:
    return [
        (f"random-{density:g}", random_matrix(n, density, seed=seed)),
        (f"band-{band_width}", band_matrix(n, band_width, seed=seed)),
    ]


def bench_pipeline(
    n: int = 8000,
    p: int = 8,
    density: float = 0.01,
    band_width: int = 64,
    formats: Sequence[str] = PAPER_FORMATS,
    repeats: int = 1,
    seed: int = 0,
) -> list[BenchResult]:
    """Time batch vs scalar ``StreamingPipeline.run`` on both workloads.

    Profiles each matrix once; the batch path consumes the
    :class:`~repro.partition.ProfileTable` directly and the scalar path
    consumes the pre-materialized profile objects, so the comparison
    isolates the pipeline evaluation itself.  Every pair is checked for
    bit-identical totals before it is reported.
    """
    config = HardwareConfig(partition_size=p)
    results: list[BenchResult] = []
    for workload, matrix in _bench_workloads(n, density, band_width, seed):
        table = profile_table(matrix, p, block_size=config.block_size)
        profiles = table.profiles()
        for format_name in formats:
            pipeline = StreamingPipeline(config, format_name)
            batch_s = _best_time(lambda: pipeline.run(table), repeats)
            scalar_s = _best_time(
                lambda: pipeline.run_scalar(profiles), repeats
            )
            batch = pipeline.run(table)
            scalar = pipeline.run_scalar(profiles)
            if batch != scalar:
                raise SimulationError(
                    f"batch/scalar mismatch for {format_name} on "
                    f"{workload}: {batch.total_cycles} != "
                    f"{scalar.total_cycles} total cycles"
                )
            results.append(
                BenchResult(
                    workload=workload,
                    format_name=format_name,
                    partition_size=p,
                    n=n,
                    nnz=matrix.nnz,
                    n_tiles=table.n_tiles,
                    scalar_s=scalar_s,
                    batch_s=batch_s,
                )
            )
    return results


def pipeline_sections(
    seed: int,
    n: int,
    partition: int,
    density: float,
    band_width: int,
    formats: Sequence[str],
    repeats: int,
) -> dict:
    """Run :func:`bench_pipeline` and return the report sections."""
    results = bench_pipeline(
        n=n,
        p=partition,
        density=density,
        band_width=band_width,
        formats=tuple(formats),
        repeats=repeats,
        seed=seed,
    )
    speedups = [r.speedup for r in results]
    geomean = (
        math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        if speedups
        else 0.0
    )
    return {
        "results": [r.as_dict() for r in results],
        "summary": {
            "min_speedup": min(speedups, default=0.0),
            "max_speedup": max(speedups, default=0.0),
            "geomean_speedup": geomean,
        },
    }


def _describe(report: dict) -> list[str]:
    config = report["config"]
    rows = [
        [
            r["workload"],
            r["format_name"],
            r["n_tiles"],
            r["scalar_s"] * 1e3,
            r["batch_s"] * 1e3,
            r["speedup"],
            r["batch_cells_per_s"] / 1e6,
        ]
        for r in report["results"]
    ]
    summary = report["summary"]
    return [
        format_table(
            ["workload", "format", "tiles", "scalar ms", "batch ms",
             "speedup", "Mcells/s"],
            rows,
            title=(
                f"Pipeline batch vs scalar, {config['n']}x{config['n']}, "
                f"p={config['partition']}"
            ),
        ),
        "",
        f"speedup: min {summary['min_speedup']:.1f}x, "
        f"geomean {summary['geomean_speedup']:.1f}x, "
        f"max {summary['max_speedup']:.1f}x",
    ]


#: ``repro bench pipeline``: the batch path must never lose to the
#: scalar reference, on quick runs too.
SUITE = Suite(
    name="pipeline",
    help="time the batch pipeline against the scalar reference",
    seed=0,
    output="BENCH_pipeline.json",
    params=(
        Param("n", 8000, "matrix dimension", quick=1024),
        Param("partition", 8, "partition size"),
        Param("density", 0.01, "density of the random workload"),
        Param("band_width", 64, "width of the band workload"),
        Param(
            "formats", tuple(PAPER_FORMATS), "formats to bench",
            type=str, nargs="+",
        ),
        Param("repeats", 1, "timing repeats, best-of reported"),
    ),
    body=pipeline_sections,
    gates=(Gate("batch_not_slower", "summary.min_speedup", ">=", 1.0),),
    describe=_describe,
)
