"""Extension: total energy — where static power flips the ranking.

Section 6.4: "The static energy, which depends on time, can be an
issue for those slower sparse formats that require less amount of
dynamic energy."  The paper states the effect; this bench quantifies
it: CSC draws the *least* dynamic power of the compute-heavy group,
yet its total energy is the worst because the run is so long, while
fast formats amortize their higher draw.
"""

from __future__ import annotations

from conftest import FORMATS, config_at

from repro.analysis import format_table
from repro.core import SpmvSimulator
from repro.workloads import random_matrix


def build_rows():
    matrix = random_matrix(1024, 0.2, seed=0)
    simulator = SpmvSimulator(config_at(16))
    profiles = simulator.profile_table(matrix)
    rows = []
    for name in FORMATS:
        result = simulator.run_format(name, profiles, "rand-0.2")
        rows.append(
            [
                name,
                result.total_seconds * 1e6,
                result.dynamic_power_w,
                result.static_power_w,
                result.dynamic_power_w * result.total_seconds * 1e6,
                result.static_power_w * result.total_seconds * 1e6,
                result.energy_j * 1e6,
            ]
        )
    return rows


def test_ext_energy(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["format", "time us", "dyn W", "static W",
             "dyn uJ", "static uJ", "total uJ"],
            rows,
            title="Extension: energy accounting (density 0.2, p=16)",
        )
    )
    by_name = {r[0]: r for r in rows}

    # CSC: lowest static power class, modest dynamic power...
    assert by_name["csc"][3] == 0.103
    # ...but worst total energy because it runs the longest.
    assert by_name["csc"][6] == max(r[6] for r in rows)

    # static energy dominates dynamic for every format at these
    # power levels (0.1 W floor vs tens of mW dynamic).
    for row in rows:
        assert row[5] > row[4], row[0]

    # the fastest format wins on energy despite any power premium.
    fastest = min(rows, key=lambda r: r[1])
    assert fastest[6] == min(r[6] for r in rows)
