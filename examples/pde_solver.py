#!/usr/bin/env python
"""Scientific computing scenario: solve a discretized PDE with CG.

Section 3.3's first domain.  A 2-D Poisson problem is discretized into
an SPD sparse system and solved by conjugate gradient, with every SpMV
running through an encoded sparse format.  The example then asks the
hardware model which format would execute those SpMVs fastest on the
accelerator, and what the whole solve would cost end to end.

Run:  python examples/pde_solver.py
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

import numpy as np

from repro import SpmvSimulator, HardwareConfig
from repro.analysis import format_table
from repro.apps import conjugate_gradient
from repro.formats import SPARSE_FORMATS
from repro.workloads import poisson_2d, random_vector


def main() -> None:
    grid = 24
    matrix = poisson_2d(grid)
    b = random_vector(matrix.n_rows, seed=3)
    print(
        f"2-D Poisson on a {grid}x{grid} grid -> "
        f"A is {matrix.n_rows}x{matrix.n_cols}, nnz={matrix.nnz}, "
        f"bandwidth={matrix.bandwidth()}"
    )
    print()

    # solve through one format end-to-end to show correctness.
    result = conjugate_gradient(
        matrix, b, format_name="csr", partition_size=16, tol=1e-10
    )
    residual = np.linalg.norm(matrix.spmv(result.x) - b)
    print(
        f"CG through CSR partitions: converged={result.converged} in "
        f"{result.iterations} iterations ({result.spmv_count} SpMVs), "
        f"|Ax-b| = {residual:.2e}"
    )
    print()

    # which format should carry this solver on the accelerator?
    simulator = SpmvSimulator(HardwareConfig(partition_size=16))
    profiles = simulator.profile_table(matrix)
    rows = []
    for name in SPARSE_FORMATS:
        spmv = simulator.run_format(name, profiles, workload="poisson")
        solve_seconds = spmv.total_seconds * result.spmv_count
        rows.append(
            [
                name,
                spmv.sigma,
                spmv.total_seconds * 1e6,
                solve_seconds * 1e3,
                spmv.bandwidth_utilization,
                spmv.energy_j * result.spmv_count * 1e3,
            ]
        )
    rows.sort(key=lambda row: row[3])
    print(
        format_table(
            [
                "format", "sigma", "SpMV (us)", "CG solve (ms)",
                "bw util", "energy (mJ)",
            ],
            rows,
            title="Projected accelerator cost of the full CG solve",
        )
    )
    best = rows[0][0]
    print()
    print(
        f"-> {best} minimizes the end-to-end solve time for this "
        "banded PDE system."
    )


if __name__ == "__main__":
    main()
