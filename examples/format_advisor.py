#!/usr/bin/env python
"""Format advisor: the paper's Figure 14 as an interactive tool.

Given any matrix — here, one Table 1 stand-in from each structural
class — the advisor sweeps every format and partition size, normalizes
the six Copernicus metrics (1 = best, 0 = worst), and prints a ranked
recommendation, mirroring how Section 8 suggests architects should
choose formats.

Run:  python examples/format_advisor.py
"""

from __future__ import annotations

try:
    import repro  # noqa: F401 — probe for an installed package
except ModuleNotFoundError:  # running from a source checkout
    import pathlib
    import sys

    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parents[1] / "src")
    )

from repro import SpmvSimulator, HardwareConfig
from repro.analysis import format_table
from repro.core import SUMMARY_METRICS, summarize
from repro.formats import PAPER_FORMATS
from repro.matrix import SparseMatrix
from repro.workloads import standin_by_id


def advise(name: str, matrix: SparseMatrix) -> None:
    print(f"== {name}: {matrix!r}")
    results = []
    for p in (8, 16, 32):
        simulator = SpmvSimulator(HardwareConfig(partition_size=p))
        profiles = simulator.profile_table(matrix)
        results.extend(
            simulator.run_format(fmt, profiles, workload=name)
            for fmt in PAPER_FORMATS
        )
    scores = summarize(results, PAPER_FORMATS)
    ranked = sorted(scores, key=lambda s: s.overall, reverse=True)
    metric_names = list(SUMMARY_METRICS)
    print(
        format_table(
            ["rank", "format"] + metric_names + ["overall"],
            [
                [index + 1, score.format_name]
                + [score.scores[m] for m in metric_names]
                + [score.overall]
                for index, score in enumerate(ranked)
            ],
        )
    )
    best = ranked[0]
    runner_up = ranked[1]
    print(
        f"-> recommend {best.format_name} "
        f"(overall {best.overall:.2f}); runner-up "
        f"{runner_up.format_name} ({runner_up.overall:.2f})"
    )
    print()


def main() -> None:
    cases = {
        "web graph (WG)": standin_by_id("WG", max_dim=1024, seed=0),
        "road network (RO)": standin_by_id("RO", max_dim=1024, seed=0),
        "thermal FEM (TH)": standin_by_id("TH", max_dim=1024, seed=0),
        "kronecker (KR)": standin_by_id("KR", max_dim=1024, seed=0),
    }
    for name, matrix in cases.items():
        advise(name, matrix)


if __name__ == "__main__":
    main()
