"""One-stop characterization report.

Bundles everything the library measures about one matrix — the
Figure-3 statistics, the full format-by-partition metric grid, the
pipeline-bound diagnosis, the Figure-14 scores and the constrained
recommendation — into a single plain-text report.  Used by the CLI's
``report`` sub-command and handy as an executable summary of what the
paper's methodology says about a workload.
"""

from __future__ import annotations

from typing import Sequence

from ..core.recommend import Constraints, recommend
from ..core.simulator import SpmvSimulator
from ..core.summary import SUMMARY_METRICS, summarize
from ..formats.registry import PAPER_FORMATS
from ..hardware.config import DEFAULT_CONFIG, HardwareConfig
from ..hardware.trace import trace_pipeline
from ..matrix import SparseMatrix
from ..partition import PARTITION_SIZES, partition_statistics
from .tables import format_table
from .timeline import render_timeline

__all__ = ["characterization_report"]


def _header(matrix: SparseMatrix, name: str) -> list[str]:
    return [
        f"# Copernicus characterization: {name}",
        "",
        f"matrix: {matrix.n_rows} x {matrix.n_cols}, nnz {matrix.nnz}, "
        f"density {matrix.density:.4%}, bandwidth {matrix.bandwidth()}, "
        f"non-zero rows {matrix.nnz_rows()}",
        "",
    ]


def _locality_section(matrix: SparseMatrix) -> list[str]:
    rows = []
    for p in PARTITION_SIZES:
        stats = partition_statistics(matrix, p)
        rows.append(
            [
                p,
                stats.n_nonzero_partitions,
                stats.nonzero_partition_fraction,
                stats.avg_partition_density,
                stats.avg_row_density,
                stats.avg_nnz_row_fraction,
            ]
        )
    return [
        "## Partition statistics (Figure 3 view)",
        "",
        format_table(
            ["p", "nz parts", "nz frac", "part density", "row density",
             "nz-row frac"],
            rows,
        ),
        "",
    ]


def _metric_grid(
    matrix: SparseMatrix,
    formats: Sequence[str],
    base_config: HardwareConfig,
) -> list[str]:
    lines = ["## Metrics per format and partition size", ""]
    for p in PARTITION_SIZES:
        simulator = SpmvSimulator(base_config.with_partition_size(p))
        table = simulator.profile_table(matrix)
        rows = []
        for name in formats:
            result = simulator.run_format(name, table, "")
            rows.append(
                [
                    name,
                    result.sigma,
                    result.total_seconds * 1e6,
                    result.balance_ratio,
                    result.throughput_bytes_per_s / 1e9,
                    result.bandwidth_utilization,
                    result.dynamic_power_w,
                ]
            )
        lines.append(
            format_table(
                ["format", "sigma", "latency us", "balance",
                 "thr GB/s", "bw util", "dyn W"],
                rows,
                title=f"partition size {p}",
            )
        )
        lines.append("")
    return lines


def _summary_section(
    matrix: SparseMatrix,
    formats: Sequence[str],
    base_config: HardwareConfig,
) -> list[str]:
    results = []
    for p in PARTITION_SIZES:
        simulator = SpmvSimulator(base_config.with_partition_size(p))
        table = simulator.profile_table(matrix)
        results.extend(
            simulator.run_format(name, table, "") for name in formats
        )
    scores = sorted(
        summarize(results, formats), key=lambda s: s.overall, reverse=True
    )
    metric_names = list(SUMMARY_METRICS)
    return [
        "## Normalized scores (Figure 14 view; 1 = best)",
        "",
        format_table(
            ["format"] + metric_names + ["overall"],
            [
                [s.format_name]
                + [s.scores[m] for m in metric_names]
                + [s.overall]
                for s in scores
            ],
        ),
        "",
    ]


def _timeline_section(
    matrix: SparseMatrix, base_config: HardwareConfig
) -> list[str]:
    simulator = SpmvSimulator(base_config.with_partition_size(16))
    table = simulator.profile_table(matrix)
    lines = ["## Pipeline timelines (16x16 partitions)", ""]
    for name in ("dense", "coo", "csc"):
        trace = trace_pipeline(simulator.config, name, table)
        lines.append(render_timeline(trace))
        lines.append("")
    return lines


def _recommendation_section(
    matrix: SparseMatrix, constraints: Constraints | None
) -> list[str]:
    lines = ["## Recommendation", ""]
    for objective in ("latency", "bandwidth", "energy"):
        choice = recommend(
            matrix, objective=objective, constraints=constraints
        )
        lines.append(
            f"* optimize {objective}: {choice.format_name} at "
            f"{choice.partition_size}x{choice.partition_size}"
        )
    lines.append("")
    return lines


def characterization_report(
    matrix: SparseMatrix,
    name: str = "workload",
    formats: Sequence[str] = PAPER_FORMATS,
    base_config: HardwareConfig = DEFAULT_CONFIG,
    constraints: Constraints | None = None,
) -> str:
    """Build the full plain-text report for one matrix."""
    lines: list[str] = []
    lines.extend(_header(matrix, name))
    lines.extend(_locality_section(matrix))
    lines.extend(_metric_grid(matrix, formats, base_config))
    lines.extend(_summary_section(matrix, formats, base_config))
    lines.extend(_timeline_section(matrix, base_config))
    lines.extend(_recommendation_section(matrix, constraints))
    return "\n".join(lines)
