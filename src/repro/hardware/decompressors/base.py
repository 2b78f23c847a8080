"""Base class for per-format decompressor hardware models.

Each model mirrors one of the paper's tailored HLS implementations
(Listings 1-7): the cycle cost follows the listing's loop structure —
what is pipelined at II = 1, what is fully unrolled over banked BRAM,
and where extra BRAM accesses serialize — and the transfer cost follows
the format's exact byte layout.

The accounting convention matches Equation 1: a partition's compute
latency is ``T_decomp + rows_processed * T_dot``, where
``rows_processed`` and the dot-product width are format-specific (the
dense baseline processes all ``p`` rows at width ``p``, making its
overhead exactly 1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ...errors import SimulationError
from ...formats.base import SizeBreakdown
from ...partition import PartitionProfile, ProfileTable
from ..config import HardwareConfig

__all__ = [
    "ComputeBreakdown",
    "ComputeColumns",
    "SizeColumns",
    "DecompressorModel",
]


@dataclass(frozen=True)
class ComputeBreakdown:
    """Compute-stage latency of one partition, in cycles.

    ``decompress_cycles`` covers BRAM accesses and row-reconstruction
    logic (Figure 2, stage 2); ``dot_cycles`` covers the dot-product
    engine passes (Figure 2, stage 3).
    """

    decompress_cycles: int
    dot_cycles: int

    def __post_init__(self) -> None:
        if self.decompress_cycles < 0 or self.dot_cycles < 0:
            raise SimulationError("cycle counts must be non-negative")

    @property
    def total_cycles(self) -> int:
        return self.decompress_cycles + self.dot_cycles


@dataclass(frozen=True, eq=False)
class ComputeColumns:
    """Compute-stage latency of every tile in a table, in cycles.

    The ``(n,)``-array counterpart of :class:`ComputeBreakdown`.
    """

    decompress_cycles: np.ndarray
    dot_cycles: np.ndarray

    @property
    def total_cycles(self) -> np.ndarray:
        return self.decompress_cycles + self.dot_cycles

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComputeColumns):
            return NotImplemented
        return np.array_equal(
            self.decompress_cycles, other.decompress_cycles
        ) and np.array_equal(self.dot_cycles, other.dot_cycles)

    __hash__ = object.__hash__


@dataclass(frozen=True, eq=False)
class SizeColumns:
    """Transfer-size accounting of every tile in a table, in bytes.

    The ``(n,)``-array counterpart of
    :class:`~repro.formats.base.SizeBreakdown`.
    """

    useful_bytes: np.ndarray
    data_bytes: np.ndarray
    metadata_bytes: np.ndarray

    @property
    def total_bytes(self) -> np.ndarray:
        return self.data_bytes + self.metadata_bytes

    def totals(self) -> SizeBreakdown:
        """All tiles summed into one scalar breakdown."""
        return SizeBreakdown(
            useful_bytes=int(self.useful_bytes.sum()),
            data_bytes=int(self.data_bytes.sum()),
            metadata_bytes=int(self.metadata_bytes.sum()),
        )

    def breakdown(self, index: int) -> SizeBreakdown:
        """One tile's scalar breakdown."""
        return SizeBreakdown(
            useful_bytes=int(self.useful_bytes[index]),
            data_bytes=int(self.data_bytes[index]),
            metadata_bytes=int(self.metadata_bytes[index]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SizeColumns):
            return NotImplemented
        return (
            np.array_equal(self.useful_bytes, other.useful_bytes)
            and np.array_equal(self.data_bytes, other.data_bytes)
            and np.array_equal(self.metadata_bytes, other.metadata_bytes)
        )

    __hash__ = object.__hash__


class DecompressorModel(ABC):
    """Latency and transfer model of one format's decompressor."""

    #: Format registry name this model corresponds to.
    name: str = ""

    # ------------------------------------------------------------------
    @abstractmethod
    def compute(
        self, profile: PartitionProfile, config: HardwareConfig
    ) -> ComputeBreakdown:
        """Compute-stage cycles for one non-zero partition."""

    @abstractmethod
    def transfer_size(
        self, profile: PartitionProfile, config: HardwareConfig
    ) -> SizeBreakdown:
        """Bytes moved by the memory-read stage for one partition.

        Must agree exactly with the corresponding
        :class:`~repro.formats.base.SparseFormat` ``size()`` on the
        encoded tile; the test suite enforces this equivalence.
        """

    # ------------------------------------------------------------------
    def stream_lines(
        self, profile: PartitionProfile, config: HardwareConfig
    ) -> list[int]:
        """Byte payloads assigned to the parallel AXIS lines.

        Default split: values on one line, metadata on the other
        (Section 5.2).  The lines share one DDR3 channel, so only their
        sum matters: an override may split the bytes differently, but
        its payloads must sum to ``transfer_size(...).total_bytes``,
        which is what the batch path streams.
        """
        size = self.transfer_size(profile, config)
        return [size.data_bytes, size.metadata_bytes]

    # ------------------------------------------------------------------
    # Batch kernels over a ProfileTable (the struct-of-arrays fast path)
    # ------------------------------------------------------------------
    # Vectorized counterparts of compute()/transfer_size(); the
    # differential test suite pins scalar and batch bit-identical.

    @abstractmethod
    def compute_batch(
        self, table: ProfileTable, config: HardwareConfig
    ) -> ComputeColumns:
        """Compute-stage cycles of every tile as ``(n,)`` arrays."""

    @abstractmethod
    def transfer_size_batch(
        self, table: ProfileTable, config: HardwareConfig
    ) -> SizeColumns:
        """Memory-read bytes of every tile as ``(n,)`` arrays."""

    def _check_profile(
        self, profile: PartitionProfile, config: HardwareConfig
    ) -> None:
        if profile.p != config.partition_size:
            raise SimulationError(
                f"profile partition size {profile.p} != configured "
                f"{config.partition_size}"
            )

    def _check_table(
        self, table: ProfileTable, config: HardwareConfig
    ) -> None:
        if table.p != config.partition_size:
            raise SimulationError(
                f"profile table partition size {table.p} != configured "
                f"{config.partition_size}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
