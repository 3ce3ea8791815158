"""Core data model: jobs, instances and interval algebra."""

from .jobs import TIME_EPS, Instance, Job
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
    "coverage_counts",
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
