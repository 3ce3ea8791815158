"""Core data model: jobs, instances and interval algebra."""

from .jobs import TIME_EPS, Instance, Job
from .interval_graphs import (
    chromatic_number,
    greedy_color,
    is_bipartite_overlap,
    max_clique,
    max_independent_set,
    overlap_edges,
)
from .intervals import (
    coverage_counts,
    interesting_intervals,
    intersect,
    intersection_length,
    length,
    merge_intervals,
    raw_demand_segments,
    span,
    subtract,
    total_length,
)
from .validation import (
    require_capacity,
    require_integral,
    require_interval_jobs,
    require_nonempty,
    require_unit_jobs,
)

__all__ = [
    "TIME_EPS",
    "Instance",
    "Job",
    "chromatic_number",
    "coverage_counts",
    "greedy_color",
    "is_bipartite_overlap",
    "max_clique",
    "max_independent_set",
    "overlap_edges",
    "interesting_intervals",
    "intersect",
    "intersection_length",
    "length",
    "merge_intervals",
    "raw_demand_segments",
    "span",
    "subtract",
    "total_length",
    "require_capacity",
    "require_integral",
    "require_interval_jobs",
    "require_nonempty",
    "require_unit_jobs",
]
