"""Characterization core: simulator, sweeps, and summaries."""

from .dse import DesignPoint, explore, pareto_frontier
from .integrity import (
    CLASSIFICATIONS,
    CheckOverhead,
    FormatIntegritySummary,
    IntegrityReport,
    KindCoverage,
    classify_damaged_frame,
    run_integrity_campaign,
)
from .recommend import (
    OBJECTIVES,
    Constraints,
    Objective,
    Recommendation,
    recommend_from_results,
)
from .results import CharacterizationResult
from .simulator import SpmvSimulator, characterize
from .store import (
    load_records,
    records_by,
    result_to_record,
    save_results,
)
from .summary import SUMMARY_METRICS, FormatScore, summarize
from .sweep import (
    group_results,
    mean_metric,
    mean_sigma_by_format,
    sweep,
    sweep_formats,
    sweep_partition_sizes,
)

__all__ = [
    "DesignPoint",
    "explore",
    "pareto_frontier",
    "CLASSIFICATIONS",
    "CheckOverhead",
    "FormatIntegritySummary",
    "IntegrityReport",
    "KindCoverage",
    "classify_damaged_frame",
    "run_integrity_campaign",
    "OBJECTIVES",
    "Constraints",
    "Objective",
    "Recommendation",
    "recommend_from_results",
    "CharacterizationResult",
    "SpmvSimulator",
    "characterize",
    "load_records",
    "records_by",
    "result_to_record",
    "save_results",
    "SUMMARY_METRICS",
    "FormatScore",
    "summarize",
    "group_results",
    "mean_metric",
    "mean_sigma_by_format",
    "sweep",
    "sweep_formats",
    "sweep_partition_sizes",
]
