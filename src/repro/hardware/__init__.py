"""Cycle-level model of the Copernicus evaluation platform.

Mirrors Figure 2: AXI stream transfers, banked BRAM buffers, per-format
decompressors (Listings 1-7), the multiplier-array + adder-tree
dot-product engine, the three-stage streaming pipeline, and the
resource/power estimators behind Table 2 and Figure 13.
"""

from .axi import AxiStreamModel
from .bram import BRAM_18K_BITS, BramBuffer, bram_blocks_for
from .config import DEFAULT_CONFIG, HardwareConfig
from .decompressors import (
    MODELED_FORMATS,
    VARIANT_FORMATS,
    ComputeBreakdown,
    ComputeColumns,
    DecompressorModel,
    SizeColumns,
    get_decompressor,
)
from .dot_product import DotProductEngine
from .integrity import IntegrityCheckModel
from .hls import (
    LISTING_BUILDERS,
    BramAccess,
    DotProductPass,
    Loop,
    Op,
    Sequence,
    Statement,
    build_listing,
    schedule_cycles,
)
from .paper_data import (
    PAPER_STATIC_POWER_W,
    PAPER_TABLE2,
    TOTAL_BRAM_18K,
    TOTAL_FF,
    TOTAL_LUT,
    PaperResourceRow,
    paper_table2_row,
)
from .multi import LaneAssignment, MultiLanePipeline, MultiLaneResult
from .schedule import (
    PartitionCost,
    imbalance_order,
    johnson_order,
    partition_costs,
    schedule_gain,
)
from .pipeline import (
    PartitionTiming,
    PipelineResult,
    StageCosts,
    StreamingPipeline,
    resolve_profile_table,
)
from .trace import PipelineTrace, StageInterval, trace_costs, trace_pipeline
from .power import PowerBreakdown, estimate_power, static_power_w
from .resources import (
    RESOURCE_FORMATS,
    ResourceEstimate,
    estimate_resources,
)

__all__ = [
    "AxiStreamModel",
    "BRAM_18K_BITS",
    "BramBuffer",
    "bram_blocks_for",
    "DEFAULT_CONFIG",
    "HardwareConfig",
    "MODELED_FORMATS",
    "VARIANT_FORMATS",
    "ComputeBreakdown",
    "ComputeColumns",
    "SizeColumns",
    "DecompressorModel",
    "get_decompressor",
    "DotProductEngine",
    "IntegrityCheckModel",
    "LISTING_BUILDERS",
    "BramAccess",
    "DotProductPass",
    "Loop",
    "Op",
    "Sequence",
    "Statement",
    "build_listing",
    "schedule_cycles",
    "PAPER_STATIC_POWER_W",
    "PAPER_TABLE2",
    "TOTAL_BRAM_18K",
    "TOTAL_FF",
    "TOTAL_LUT",
    "PaperResourceRow",
    "paper_table2_row",
    "LaneAssignment",
    "MultiLanePipeline",
    "MultiLaneResult",
    "PartitionCost",
    "imbalance_order",
    "johnson_order",
    "partition_costs",
    "schedule_gain",
    "PartitionTiming",
    "PipelineResult",
    "StageCosts",
    "StreamingPipeline",
    "resolve_profile_table",
    "PipelineTrace",
    "StageInterval",
    "trace_costs",
    "trace_pipeline",
    "PowerBreakdown",
    "estimate_power",
    "static_power_w",
    "RESOURCE_FORMATS",
    "ResourceEstimate",
    "estimate_resources",
]
