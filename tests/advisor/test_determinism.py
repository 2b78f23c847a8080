"""Determinism contract for sampled advise.

The band sample is fixed by module constants (band size, every k-th
band, offset): there is no seed, so the same matrix always yields the
same sampled ranking.
"""

from __future__ import annotations

from repro.core.recommend import SAMPLE_EVERY, recommend
from repro.engine.specs import WorkloadSpec


class TestRankingDeterminism:
    def test_fast_rankings_are_identical_across_calls(self) -> None:
        matrix = WorkloadSpec.random(
            2048, 0.004, seed=11, name="probe"
        ).build().matrix

        def ranking() -> list:
            advice = recommend(
                matrix,
                formats=("coo", "csr", "ell"),
                partition_sizes=(8, 16),
                fast=True,
            )
            assert advice.sample_every == SAMPLE_EVERY
            return [
                (r.format_name, r.partition_size, advice.cycles(r))
                for r in advice.ranking()
            ]

        first = ranking()
        assert first == ranking()
        assert len(first) == 6
