"""Placement quality evaluation: wire length, overlap, distribution, tables."""

from .wirelength import (
    MICRONS_PER_METER,
    net_hpwl,
    hpwl,
    hpwl_meters,
    quadratic_wirelength,
    net_bounding_boxes,
    net_mst_length,
    mst_wirelength,
)
from .overlap import (
    DistributionStats,
    default_bin_side,
    distribution_stats,
    is_evenly_distributed,
    occupancy_map,
    overlap_ratio,
    total_overlap,
)
from .report import format_table, format_markdown_table, percent_improvement
from .analysis import (
    PlacementDiff,
    PlacementSummary,
    compare_placements,
    load_summary_json,
    save_summary_json,
    summarize_placement,
)

__all__ = [
    "MICRONS_PER_METER",
    "net_hpwl",
    "hpwl",
    "hpwl_meters",
    "quadratic_wirelength",
    "net_bounding_boxes",
    "net_mst_length",
    "mst_wirelength",
    "DistributionStats",
    "default_bin_side",
    "distribution_stats",
    "is_evenly_distributed",
    "occupancy_map",
    "overlap_ratio",
    "total_overlap",
    "format_table",
    "format_markdown_table",
    "percent_improvement",
    "PlacementDiff",
    "PlacementSummary",
    "compare_placements",
    "load_summary_json",
    "save_summary_json",
    "summarize_placement",
]
