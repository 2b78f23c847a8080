"""Ablation: pipeline bubbles and stalls (the trace view).

Section 4.2 defines the balance ratio because "an imbalance streaming
leads to idle computation or pauses in data transfer".  The aggregate
metric hides *where* the waste goes; the event trace exposes it.  This
ablation traces three archetypes and checks the symptoms match the
diagnosis:

* dense at 32x32 — memory-bound: compute bubbles;
* CSC — compute-bound: memory pauses;
* COO on moderately sparse data — near balance: little of either.
"""

from __future__ import annotations

from conftest import config_at

from repro.analysis import format_table
from repro.hardware import trace_pipeline
from repro.partition import profile_table
from repro.workloads import random_matrix


def build_rows():
    rows = []
    cases = (
        ("dense", 32, 0.05),
        ("csc", 16, 0.2),
        ("coo", 16, 0.05),
        ("csr", 16, 0.2),
        ("bcsr", 16, 0.2),
        ("lil", 16, 0.05),
    )
    for name, p, density in cases:
        matrix = random_matrix(1024, density, seed=0)
        profiles = profile_table(matrix, p)
        trace = trace_pipeline(config_at(p), name, profiles)
        rows.append(
            [
                name,
                p,
                density,
                trace.bound(),
                trace.compute_occupancy,
                trace.memory_occupancy,
                trace.compute_idle_cycles,
                trace.memory_stall_cycles,
            ]
        )
    return rows


def test_ablation_pipeline_trace(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    print()
    print(
        format_table(
            [
                "format", "p", "density", "bound",
                "comp occ", "mem occ", "comp idle", "mem stalls",
            ],
            rows,
            title="Ablation: where imbalance wastes cycles",
        )
    )
    by_name = {(r[0], r[1]): r for r in rows}

    dense = by_name[("dense", 32)]
    assert dense[3] == "memory"
    assert dense[6] > 0  # compute bubbles

    csc = by_name[("csc", 16)]
    assert csc[3] == "compute"
    assert csc[7] > 0  # memory pauses
    assert csc[4] > 0.95  # decompressor saturated

    # the dominant stage of every case is nearly always busy.
    for row in rows:
        assert max(row[4], row[5]) > 0.75, row[0]
