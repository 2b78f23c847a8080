"""Format recommendation under constraints.

The paper's stated purpose is to give architects "hints to ... mindfully
choose appropriate sparse formats" and to show "which parameters must be
tuned ... to optimize for a particular metric" (Section 1).  This module
turns the characterization results into that decision procedure: pick
the best (format, partition size) pair for a chosen objective, subject
to the resource and power budgets of a target device.

``recommend(..., fast=True)`` answers the same question from a band
sample of the matrix, run through the same exact model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import ShapeError, SimulationError
from ..hardware.config import DEFAULT_CONFIG, HardwareConfig
from ..matrix import SparseMatrix
from ..partition import PARTITION_SIZES
from .results import CharacterizationResult
from .simulator import SpmvSimulator

__all__ = [
    "OBJECTIVES",
    "Objective",
    "Constraints",
    "Recommendation",
    "SAMPLE_BAND_ROWS",
    "SAMPLE_EVERY",
    "SAMPLE_FLOOR_BANDS",
    "SAMPLE_OFFSET",
    "band_sample",
    "recommend",
    "recommend_from_results",
]

#: Result attribute and direction per objective name.
_OBJECTIVES: dict[str, tuple[str, bool]] = {
    "latency": ("total_cycles", False),
    "throughput": ("throughput_bytes_per_s", True),
    "bandwidth": ("bandwidth_utilization", True),
    "overhead": ("sigma", False),
    "energy": ("energy_j", False),
    "power": ("dynamic_power_w", False),
}

#: The recognized objective names, in declaration order.
OBJECTIVES: tuple[str, ...] = tuple(_OBJECTIVES)


@dataclass(frozen=True)
class Objective:
    """What to optimize: one of latency / throughput / bandwidth /
    overhead / energy / power."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in _OBJECTIVES:
            raise SimulationError(
                f"unknown objective {self.name!r}; choose from "
                f"{', '.join(_OBJECTIVES)}"
            )

    def value(self, result: CharacterizationResult) -> float:
        attribute, _ = _OBJECTIVES[self.name]
        return float(getattr(result, attribute))

    def better(self, a: float, b: float) -> bool:
        """Is ``a`` strictly better than ``b``?"""
        _, higher = _OBJECTIVES[self.name]
        return a > b if higher else a < b


@dataclass(frozen=True)
class Constraints:
    """Device budgets a candidate design must respect.

    Defaults are the xq7z020 the paper targets (Table 2 totals); pass
    smaller numbers to model a tighter device or a shared fabric.
    """

    max_bram_18k: int = 140
    max_ff: int = 106_400
    max_lut: int = 53_200
    max_dynamic_power_w: float = float("inf")

    def admits(self, result: CharacterizationResult) -> bool:
        resources = result.resources
        return (
            resources.bram_18k <= self.max_bram_18k
            and resources.ff <= self.max_ff
            and resources.lut <= self.max_lut
            and result.dynamic_power_w <= self.max_dynamic_power_w
        )


@dataclass(frozen=True)
class Recommendation:
    """The chosen design point plus every evaluated alternative.

    ``sample_every`` is 1 when every row of the matrix was
    characterized.  A band-sampled answer (``recommend(fast=True)``)
    carries :data:`SAMPLE_EVERY`: its candidates then describe the
    sampled sub-matrix, and :meth:`cycles` scales them to the whole.
    """

    best: CharacterizationResult
    objective: Objective
    candidates: tuple[CharacterizationResult, ...]
    rejected: tuple[CharacterizationResult, ...]
    sample_every: int = 1

    @property
    def format_name(self) -> str:
        return self.best.format_name

    @property
    def partition_size(self) -> int:
        return self.best.partition_size

    def ranking(self) -> list[CharacterizationResult]:
        """Feasible candidates, best first.

        Latency ranks by :meth:`cycles`, the whole-matrix number a
        sampled answer reports, not by the sample's own total.
        """
        return sorted(
            self.candidates,
            key=(
                self.cycles
                if self.objective.name == "latency"
                else self.objective.value
            ),
            reverse=_OBJECTIVES[self.objective.name][1],
        )

    def cycles(self, result: CharacterizationResult) -> int:
        """Whole-matrix latency of ``result`` in cycles.

        The steady-state sum over tiles scales by ``sample_every``;
        pipeline fill and drain happen once.  Exact when
        ``sample_every`` is 1.
        """
        pipeline = result.pipeline
        edges = pipeline.fill_cycles + pipeline.drain_cycles
        return self.sample_every * (result.total_cycles - edges) + edges


#: Rows per sampled band.  A multiple of every paper partition size,
#: so each kept tile is whole and its profile exact.
SAMPLE_BAND_ROWS = 32
#: ``recommend(fast=True)`` keeps every ``SAMPLE_EVERY``-th band...
SAMPLE_EVERY = 8
#: ...starting at this band.  Band 0 is where R-MAT generators put
#: their hubs, so an offset of 0 would over-weight them.
SAMPLE_OFFSET = 4
#: Matrices with fewer bands than this are characterized exactly.
SAMPLE_FLOOR_BANDS = 64


def band_sample(matrix: SparseMatrix) -> SparseMatrix:
    """Every :data:`SAMPLE_EVERY`-th band of :data:`SAMPLE_BAND_ROWS`
    rows, from band :data:`SAMPLE_OFFSET`, renumbered into one
    ``(kept * SAMPLE_BAND_ROWS, n_cols)`` sub-matrix.

    Kept bands stay in order and keep their row offsets within the
    band, so every tile of a partition size dividing the band is
    profiled exactly as in ``matrix``.
    """
    n_bands = -(-matrix.n_rows // SAMPLE_BAND_ROWS)
    starts = (
        np.arange(SAMPLE_OFFSET, n_bands, SAMPLE_EVERY) * SAMPLE_BAND_ROWS
    )
    if not starts.size:
        raise ShapeError(
            f"a {matrix.n_rows}-row matrix has no band {SAMPLE_OFFSET} "
            f"of {SAMPLE_BAND_ROWS} rows to sample"
        )
    # canonical entries are row-major, so each band is one slice
    bounds = np.searchsorted(
        matrix.rows, np.stack([starts, starts + SAMPLE_BAND_ROWS])
    )
    keep = [slice(lo, hi) for lo, hi in bounds.T.tolist()]
    shift = np.repeat(
        starts - np.arange(starts.size) * SAMPLE_BAND_ROWS,
        bounds[1] - bounds[0],
    )
    return SparseMatrix(
        (starts.size * SAMPLE_BAND_ROWS, matrix.n_cols),
        np.concatenate([matrix.rows[k] for k in keep]) - shift,
        np.concatenate([matrix.cols[k] for k in keep]),
        np.concatenate([matrix.vals[k] for k in keep]),
    )


def recommend(
    matrix: SparseMatrix,
    objective: str = "latency",
    formats: Sequence[str] = (
        "csr", "bcsr", "csc", "lil", "ell", "coo", "dia",
    ),
    partition_sizes: Sequence[int] = PARTITION_SIZES,
    constraints: Constraints | None = None,
    base_config: HardwareConfig = DEFAULT_CONFIG,
    fast: bool = False,
) -> Recommendation:
    """Pick the best (format, partition size) for ``matrix``.

    Every combination is characterized on the hardware model; designs
    violating ``constraints`` are excluded, and the survivor optimizing
    ``objective`` wins.

    With ``fast``, a matrix of at least :data:`SAMPLE_FLOOR_BANDS`
    bands is characterized on its :func:`band_sample` instead, when
    every partition size divides the band.  The model's latency is a
    sum of per-tile terms plus fill and drain, so whole kept tiles
    estimate each candidate's total without bias.  Any other matrix
    runs exact; ``sample_every`` on the answer says which ran.
    """
    sample_every = 1
    if (
        fast
        and matrix.n_rows >= SAMPLE_FLOOR_BANDS * SAMPLE_BAND_ROWS
        and all(SAMPLE_BAND_ROWS % p == 0 for p in partition_sizes)
    ):
        sample = band_sample(matrix)
        if sample.nnz:
            matrix, sample_every = sample, SAMPLE_EVERY
    results: list[CharacterizationResult] = []
    for p in partition_sizes:
        simulator = SpmvSimulator(base_config.with_partition_size(p))
        table = simulator.profile_table(matrix)
        for name in formats:
            results.append(
                simulator.run_format(name, table, workload="")
            )
    recommendation = recommend_from_results(
        results, objective, constraints
    )
    if sample_every == 1:
        return recommendation
    sampled = replace(recommendation, sample_every=sample_every)
    return replace(sampled, best=sampled.ranking()[0])


def recommend_from_results(
    results: Sequence[CharacterizationResult],
    objective: str = "latency",
    constraints: Constraints | None = None,
) -> Recommendation:
    """Rank already-characterized design points.

    The constraint/objective half of :func:`recommend`, split out so
    callers that computed the characterization elsewhere — the sweep
    engine, the characterization server's cached results — can reuse
    the decision procedure without re-simulating.
    """
    goal = Objective(objective)
    budget = constraints or Constraints()
    feasible: list[CharacterizationResult] = []
    rejected: list[CharacterizationResult] = []
    for result in results:
        if budget.admits(result):
            feasible.append(result)
        else:
            rejected.append(result)
    if not feasible:
        raise SimulationError(
            "no (format, partition) combination satisfies the "
            "constraints; relax the budgets or widen the search"
        )
    best = feasible[0]
    for candidate in feasible[1:]:
        if goal.better(goal.value(candidate), goal.value(best)):
            best = candidate
    return Recommendation(
        best=best,
        objective=goal,
        candidates=tuple(feasible),
        rejected=tuple(rejected),
    )
