"""Busy-time scheduling: GREEDYTRACKING, FIRSTFIT, 2-approximations, preemption."""

from .bounds import (
    best_lower_bound,
    demand_profile_lower_bound,
    mass_lower_bound,
    span_lower_bound,
)
from .demand_profile import (
    DemandProfile,
    compute_demand_profile,
    pad_to_multiple_of_g,
)
from .exact import exact_busy_time_interval
from .firstfit import first_fit, fits_in_bundle
from .flexible import INTERVAL_ALGORITHMS, schedule_flexible
from .greedy_tracking import extract_tracks, greedy_tracking
from .kumar_rudra import assign_levels, kumar_rudra, two_color_level
from .preemptive import (
    PreemptivePiece,
    PreemptiveSchedule,
    greedy_unbounded_preemptive,
    preemptive_bounded,
)
from .schedule import Bundle, BusyTimeSchedule, BusyVerificationError
from .tracks import longest_track
from .two_approx import chain_peeling_two_approx, extract_chain
from .unbounded import UnboundedPlacement, opt_infinity, pin_instance

__all__ = [
    "Bundle",
    "BusyTimeSchedule",
    "BusyVerificationError",
    "DemandProfile",
    "INTERVAL_ALGORITHMS",
    "PreemptivePiece",
    "PreemptiveSchedule",
    "UnboundedPlacement",
    "assign_levels",
    "best_lower_bound",
    "chain_peeling_two_approx",
    "compute_demand_profile",
    "demand_profile_lower_bound",
    "exact_busy_time_interval",
    "extract_chain",
    "extract_tracks",
    "first_fit",
    "fits_in_bundle",
    "greedy_tracking",
    "greedy_unbounded_preemptive",
    "kumar_rudra",
    "longest_track",
    "mass_lower_bound",
    "opt_infinity",
    "pad_to_multiple_of_g",
    "pin_instance",
    "preemptive_bounded",
    "schedule_flexible",
    "span_lower_bound",
    "two_color_level",
]
