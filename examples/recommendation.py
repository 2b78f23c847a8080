#!/usr/bin/env python
"""Recommendation-model scenario: embedding lookups as sparse algebra.

Section 3.1: recommendation models pair dense embedding tables with
random, sparse accesses; Section 3.3 reduces the lookups to the same
dot-product engine as SpMV.  This example builds a DLRM-style access
batch, pools it through the SpMM kernel, and asks the constraint-aware
recommender which format and partition size should carry the access
matrix on the accelerator — including under a tight BRAM budget.

Run:  python examples/recommendation.py
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

from repro.analysis import format_table
from repro.apps import embedding_reduction, spmm
from repro.core.recommend import Constraints, recommend
from repro.workloads import (
    embedding_access_matrix,
    embedding_access_trace,
)


def main() -> None:
    table_rows, dim = 4096, 32
    batch, lookups = 256, 24
    rng = np.random.default_rng(8)
    table = rng.normal(size=(table_rows, dim))

    trace = embedding_access_trace(batch, table_rows, lookups, seed=2)
    access = embedding_access_matrix(batch, table_rows, lookups, seed=2)
    print(
        f"embedding table {table_rows}x{dim}; batch of {batch} queries "
        f"x {lookups} lookups -> access matrix {access!r}"
    )

    pooled = spmm(access, table, format_name="csr", partition_size=16)
    check = embedding_reduction(table, trace[0])
    assert np.allclose(pooled[0], check)
    print(
        f"pooled batch through CSR partitions: {pooled.shape}, "
        "matches per-query reduction."
    )
    print()

    # which format should carry this access matrix?
    unconstrained = recommend(access, objective="latency")
    print(
        f"fastest design: {unconstrained.format_name} at "
        f"{unconstrained.partition_size}x{unconstrained.partition_size} "
        f"({unconstrained.best.total_seconds * 1e6:.1f} us per batch "
        "SpMV)"
    )

    tight = recommend(
        access,
        objective="latency",
        constraints=Constraints(max_bram_18k=6),
    )
    print(
        f"under a 6-BRAM budget: {tight.format_name} at "
        f"{tight.partition_size}x{tight.partition_size} "
        f"({len(tight.rejected)} designs rejected)"
    )
    print()

    rows = [
        [
            r.format_name,
            r.partition_size,
            r.total_seconds * 1e6,
            r.bandwidth_utilization,
            r.resources.bram_18k,
            r.dynamic_power_w,
        ]
        for r in unconstrained.ranking()[:8]
    ]
    print(
        format_table(
            ["format", "p", "latency us", "bw util", "BRAM", "dyn W"],
            rows,
            title="Top designs for the embedding access matrix",
        )
    )


if __name__ == "__main__":
    main()
