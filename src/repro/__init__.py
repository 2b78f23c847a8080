"""Copernicus: performance characterization of sparse compression formats.

A full Python reproduction of "Copernicus: Characterizing the
Performance Implications of Compression Formats Used in Sparse
Workloads" (IISWC 2021): a from-scratch sparse-format library, a
cycle-level model of the paper's HLS streaming SpMV accelerator, the
three workload suites, and the characterization metrics behind every
table and figure.

Quickstart::

    from repro import SparseMatrix, characterize
    from repro.workloads import random_matrix

    matrix = random_matrix(512, density=0.01, seed=7)
    result = characterize(matrix, "csr", partition_size=16)
    print(result.sigma, result.balance_ratio)
"""

from . import (
    analysis,
    apps,
    core,
    engine,
    formats,
    hardware,
    io,
    observability,
    workloads,
)
from .core import CharacterizationResult, SpmvSimulator, characterize
from .engine import SweepRunner, WorkloadSpec, run_sweep
from .errors import (
    CopernicusError,
    FormatError,
    HardwareConfigError,
    ManifestError,
    ObservabilityError,
    PartitionError,
    ShapeError,
    SimulationError,
    SweepConfigError,
    UnknownFormatError,
    WorkloadError,
)
from .observability import MetricsRegistry, read_manifest
from .formats import PAPER_FORMATS, SPARSE_FORMATS, get_format
from .hardware import DEFAULT_CONFIG, HardwareConfig
from .matrix import SparseMatrix
from .partition import (
    PARTITION_SIZES,
    Partition,
    PartitionProfile,
    PartitionStatistics,
    ProfileTable,
    partition_matrix,
    partition_statistics,
    profile_table,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "analysis",
    "apps",
    "core",
    "engine",
    "SweepRunner",
    "WorkloadSpec",
    "run_sweep",
    "formats",
    "hardware",
    "io",
    "observability",
    "workloads",
    "MetricsRegistry",
    "read_manifest",
    "CharacterizationResult",
    "SpmvSimulator",
    "characterize",
    "CopernicusError",
    "FormatError",
    "HardwareConfigError",
    "ManifestError",
    "ObservabilityError",
    "PartitionError",
    "ShapeError",
    "SimulationError",
    "SweepConfigError",
    "UnknownFormatError",
    "WorkloadError",
    "PAPER_FORMATS",
    "SPARSE_FORMATS",
    "get_format",
    "DEFAULT_CONFIG",
    "HardwareConfig",
    "SparseMatrix",
    "PARTITION_SIZES",
    "Partition",
    "PartitionProfile",
    "PartitionStatistics",
    "ProfileTable",
    "partition_matrix",
    "partition_statistics",
    "profile_table",
]
