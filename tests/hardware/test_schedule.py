"""Partition-order scheduling tests."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.hardware import HardwareConfig
from repro.hardware.schedule import (
    PartitionCost,
    imbalance_order,
    johnson_order,
    partition_costs,
    schedule_gain,
)
from repro.matrix import SparseMatrix
from repro.partition import profile_table
from repro.workloads import band_matrix, random_matrix

CONFIG = HardwareConfig(partition_size=16)


def mixed_profiles():
    """A workload with both memory-heavy and compute-heavy tiles:
    a dense band through a sparse background."""
    background = random_matrix(256, 0.02, seed=0)
    band = band_matrix(256, 32, seed=1)
    return profile_table(background.add(band), 16)


class TestCosts:
    def test_costs_cover_all_partitions(self):
        profiles = mixed_profiles()
        costs = partition_costs(CONFIG, "csr", profiles)
        assert [c.index for c in costs] == list(range(len(profiles)))

    def test_skew_sign(self):
        memory_heavy = PartitionCost(0, 100, 10)
        compute_heavy = PartitionCost(1, 10, 100)
        assert memory_heavy.skew > 0
        assert compute_heavy.skew < 0


class TestOrders:
    def test_orders_are_permutations(self):
        costs = partition_costs(CONFIG, "csr", mixed_profiles())
        n = len(costs)
        assert sorted(imbalance_order(costs)) == list(range(n))
        assert sorted(johnson_order(costs)) == list(range(n))

    def test_skew_sorted_order(self):
        costs = [
            PartitionCost(0, 10, 50),
            PartitionCost(1, 50, 10),
            PartitionCost(2, 30, 30),
        ]
        assert imbalance_order(costs) == [1, 2, 0]

    def test_johnson_rule_structure(self):
        costs = [
            PartitionCost(0, 50, 10),  # memory-heavy -> back
            PartitionCost(1, 5, 40),  # fast fetch -> front
            PartitionCost(2, 20, 30),  # front, after 1
            PartitionCost(3, 60, 20),  # back, before 0
        ]
        assert johnson_order(costs) == [1, 2, 3, 0]

    def test_johnson_is_optimal_for_textbook_instance(self):
        """The classic 2-machine example: enumerate all permutations
        of a small instance and verify Johnson matches the optimum."""
        import itertools

        costs = [
            PartitionCost(0, 3, 6),
            PartitionCost(1, 5, 2),
            PartitionCost(2, 1, 2),
            PartitionCost(3, 6, 6),
            PartitionCost(4, 7, 5),
        ]

        def flowshop_makespan(order):
            mem_done = comp_done = 0
            for i in order:
                mem_done += costs[i].memory_cycles
                comp_done = max(comp_done, mem_done) + costs[i].compute_cycles
            return comp_done

        best = min(
            flowshop_makespan(perm)
            for perm in itertools.permutations(range(5))
        )
        assert flowshop_makespan(johnson_order(costs)) == best


class TestScheduleGain:
    def test_johnson_never_slower_than_alternatives(self):
        table = mixed_profiles()
        for name in ("csr", "coo", "dia", "lil", "bcsr"):
            gains = schedule_gain(CONFIG, name, table)
            assert gains["johnson"] <= gains["skew_sorted"], name
            assert gains["johnson"] <= gains["original"], name
            # object input takes the same path as the table
            assert schedule_gain(CONFIG, name, table.profiles()) == gains

    def test_johnson_gains_on_mixed_workload(self):
        """On a band-through-background workload, reordering buys a
        measurable win for the stream formats."""
        profiles = mixed_profiles()
        gains = schedule_gain(CONFIG, "coo", profiles)
        assert gains["johnson"] < 0.9 * gains["original"]

    def test_all_orders_bounded_below_by_stage_totals(self):
        profiles = mixed_profiles()
        costs = partition_costs(CONFIG, "csr", profiles)
        lower = max(
            sum(c.memory_cycles for c in costs),
            sum(c.compute_cycles for c in costs),
        )
        gains = schedule_gain(CONFIG, "csr", profiles)
        for value in gains.values():
            assert value >= lower

    def test_uniform_workload_is_order_insensitive(self):
        """All-identical partitions: ordering cannot matter."""
        matrix = SparseMatrix.identity(256)
        profiles = profile_table(matrix, 16)
        gains = schedule_gain(CONFIG, "coo", profiles)
        assert gains["original"] == gains["skew_sorted"]
        assert gains["original"] == gains["johnson"]

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            schedule_gain(CONFIG, "csr", [])
