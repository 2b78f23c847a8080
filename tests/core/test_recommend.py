"""Recommendation engine tests."""

from __future__ import annotations

import types

import pytest

from repro.core.recommend import (
    Constraints,
    Objective,
    Recommendation,
    recommend,
)
from repro.errors import SimulationError
from repro.matrix import SparseMatrix
from repro.workloads import band_matrix, random_matrix


def test_the_submodule_is_not_shadowed_by_its_function():
    import repro.core.recommend as module

    assert isinstance(module, types.ModuleType)
    assert module.recommend is recommend


class TestObjective:
    def test_known_objectives(self):
        for name in ("latency", "throughput", "bandwidth", "overhead",
                     "energy", "power"):
            Objective(name)

    def test_unknown_objective(self):
        with pytest.raises(SimulationError):
            Objective("speedz")

    def test_direction(self):
        assert Objective("latency").better(1.0, 2.0)
        assert Objective("throughput").better(2.0, 1.0)


class TestConstraints:
    def test_default_admits_everything_on_device(self):
        matrix = random_matrix(64, 0.05, seed=0)
        result = recommend(matrix)
        assert not result.rejected

    def test_tight_bram_budget_excludes_big_designs(self):
        matrix = random_matrix(64, 0.05, seed=0)
        result = recommend(
            matrix, constraints=Constraints(max_bram_18k=4)
        )
        assert result.rejected
        assert result.best.resources.bram_18k <= 4

    def test_impossible_budget_raises(self):
        matrix = random_matrix(64, 0.05, seed=0)
        with pytest.raises(SimulationError):
            recommend(matrix, constraints=Constraints(max_lut=1))


class TestRecommend:
    def test_returns_best_by_objective(self):
        matrix = random_matrix(96, 0.02, seed=1)
        result = recommend(matrix, objective="latency")
        best_value = result.best.total_cycles
        for candidate in result.candidates:
            assert best_value <= candidate.total_cycles

    def test_csc_never_recommended_for_latency(self):
        for seed in range(3):
            matrix = random_matrix(96, 0.05, seed=seed)
            assert recommend(matrix).format_name != "csc"

    def test_dia_wins_bandwidth_on_diagonal(self):
        matrix = band_matrix(128, 1, seed=0)
        result = recommend(matrix, objective="bandwidth")
        assert result.format_name == "dia"

    def test_ranking_sorted(self):
        matrix = random_matrix(64, 0.05, seed=2)
        result = recommend(matrix, objective="throughput")
        ranking = result.ranking()
        values = [r.throughput_bytes_per_s for r in ranking]
        assert values == sorted(values, reverse=True)
        assert ranking[0].format_name == result.format_name

    def test_search_space_respected(self):
        matrix = random_matrix(64, 0.05, seed=3)
        result = recommend(
            matrix, formats=("coo",), partition_sizes=(8,)
        )
        assert result.format_name == "coo"
        assert result.partition_size == 8
        assert len(result.candidates) == 1

    def test_identity_is_dia_territory(self):
        result = recommend(
            SparseMatrix.identity(128), objective="bandwidth"
        )
        assert isinstance(result, Recommendation)
        assert result.format_name == "dia"
