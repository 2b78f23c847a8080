"""Extension: partition-order scheduling (Johnson's rule).

The paper streams partitions in grid order.  Because partitions are
independent, the stream order is a free host-side knob; the two-stage
(memory -> compute) pipeline is a textbook F2 flow shop, so Johnson's
rule orders it optimally.  This bench measures how much that knob is
worth on a mixed workload — a band (compute-friendly, memory-heavy
tiles) threaded through a sparse background (tiny, compute-cheap
tiles).
"""

from __future__ import annotations

from conftest import FORMATS, config_at

from repro.analysis import format_table
from repro.hardware.schedule import schedule_gain
from repro.partition import profile_table
from repro.workloads import band_matrix, random_matrix


def build_rows():
    background = random_matrix(1024, 0.01, seed=0)
    band = band_matrix(1024, 32, seed=1)
    profiles = profile_table(background.add(band), 16)
    config = config_at(16)
    rows = []
    for name in FORMATS:
        gains = schedule_gain(config, name, profiles)
        rows.append(
            [
                name,
                gains["original"],
                gains["skew_sorted"],
                gains["johnson"],
                gains["original"] / gains["johnson"],
            ]
        )
    return rows


def test_ext_schedule(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["format", "grid order", "skew sorted", "johnson",
             "speedup"],
            rows,
            title="Extension: stream-order scheduling (mixed workload, "
            "p=16)",
        )
    )
    by_name = {r[0]: r for r in rows}

    # Johnson never loses to the grid order.
    for row in rows:
        assert row[3] <= row[1] + 1e-9, row[0]

    # the stream formats on a mixed workload gain measurably.
    assert by_name["coo"][4] > 1.05
    assert by_name["lil"][4] > 1.05

    # dense is order-insensitive: every partition costs the same.
    assert by_name["dense"][4] == 1.0
