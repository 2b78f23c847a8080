"""The characterization simulator.

Ties the substrates together: a matrix is profiled into non-zero
partitions once, then streamed through each format's hardware model to
produce a :class:`~repro.core.results.CharacterizationResult` holding
every metric the paper reports.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from ..errors import SimulationError
from ..hardware.config import DEFAULT_CONFIG, HardwareConfig
from ..hardware.pipeline import StreamingPipeline
from ..hardware.power import PowerBreakdown, estimate_power
from ..hardware.resources import ResourceEstimate, estimate_resources
from ..matrix import SparseMatrix
from ..partition import PartitionProfile, ProfileTable, profile_table
from .results import CharacterizationResult

__all__ = ["SpmvSimulator", "characterize"]


@lru_cache(maxsize=256)
def _static_estimates(
    format_name: str, config: HardwareConfig
) -> tuple[ResourceEstimate, PowerBreakdown]:
    """Resources and power, which depend on nothing but (format, config).

    Both are frozen, so every result of a sweep slice shares one pair.
    The estimators are looked up by name per miss, so wrappers see them.
    """
    resources = estimate_resources(format_name, config)
    return resources, estimate_power(format_name, config, resources)


class SpmvSimulator:
    """Characterizes sparse formats on the modelled accelerator.

    Parameters
    ----------
    config:
        Hardware configuration; ``partition_size`` is the tiling and
        engine width.  Defaults to the paper's platform at 16 x 16.
    """

    def __init__(self, config: HardwareConfig = DEFAULT_CONFIG) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def profile_table(self, matrix: SparseMatrix) -> ProfileTable:
        """Columnar profile of the non-zero partitions (reusable)."""
        return profile_table(
            matrix,
            self.config.partition_size,
            block_size=self.config.block_size,
        )

    def dense_compute_cycles(self, n_partitions: int) -> int:
        """Equation 1's denominator summed over the partitions."""
        p = self.config.partition_size
        return n_partitions * p * self.config.dot_product_cycles()

    def run_format(
        self,
        format_name: str,
        profiles: ProfileTable | Sequence[PartitionProfile],
        workload: str = "",
    ) -> CharacterizationResult:
        """Characterize one format over pre-computed profiles.

        Accepts a :class:`ProfileTable` (preferred — the pipeline stays
        on the vectorized batch path) or a profile sequence.
        """
        if not len(profiles):
            raise SimulationError(
                "cannot characterize an all-zero matrix: no non-zero "
                "partitions to stream"
            )
        pipeline = StreamingPipeline(self.config, format_name)
        result = pipeline.run(profiles)
        dense_cycles = self.dense_compute_cycles(len(profiles))
        sigma = result.compute_cycles / dense_cycles
        resources, power = _static_estimates(format_name, self.config)
        return CharacterizationResult(
            workload=workload,
            format_name=format_name,
            partition_size=self.config.partition_size,
            sigma=sigma,
            pipeline=result,
            size=result.transferred,
            clock_mhz=self.config.clock_mhz,
            resources=resources,
            power=power,
        )

    def characterize(
        self,
        matrix: SparseMatrix,
        format_name: str,
        workload: str = "",
    ) -> CharacterizationResult:
        """Characterize one format on one matrix."""
        return self.run_format(
            format_name, self.profile_table(matrix), workload
        )

    def characterize_formats(
        self,
        matrix: SparseMatrix,
        format_names: Sequence[str],
        workload: str = "",
    ) -> dict[str, CharacterizationResult]:
        """Characterize several formats, profiling the matrix once."""
        table = self.profile_table(matrix)
        return {
            name: self.run_format(name, table, workload)
            for name in format_names
        }


def characterize(
    matrix: SparseMatrix,
    format_name: str,
    partition_size: int = 16,
    workload: str = "",
) -> CharacterizationResult:
    """One-shot convenience wrapper around :class:`SpmvSimulator`."""
    config = DEFAULT_CONFIG.with_partition_size(partition_size)
    return SpmvSimulator(config).characterize(matrix, format_name, workload)
