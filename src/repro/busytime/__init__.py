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
from .exact import (
    brute_force_busy_time_interval,
    exact_busy_time_flexible,
    exact_busy_time_interval,
)
from .firstfit import first_fit, fits_in_bundle
from .flexible import INTERVAL_ALGORITHMS, schedule_flexible
from .greedy_tracking import extract_tracks, greedy_tracking, proper_witness_set
from .maximization import greedy_throughput, maximize_throughput_exact
from .kumar_rudra import assign_levels, kumar_rudra, two_color_level
from .preemptive import (
    PreemptivePiece,
    PreemptiveSchedule,
    greedy_unbounded_preemptive,
    preemptive_bounded,
)
from .span_search import earliest_fit_span, span_search_exact
from .schedule import Bundle, BusyTimeSchedule, BusyVerificationError
from .special_cases import clique_greedy, proper_clique_exact, proper_greedy
from .tracks import is_track, longest_track, track_length
from .two_approx import chain_peeling_two_approx, extract_chain
from .online import (
    arrival_order,
    nested_adversarial_instance,
    online_best_fit,
    online_first_fit,
)
from .unbounded import UnboundedPlacement, opt_infinity, pin_instance
from .widths import (
    WidthBundle,
    WidthInstance,
    WidthJob,
    WidthSchedule,
    first_fit_with_widths,
    khandekar_narrow_wide,
    width_mass_lower_bound,
    width_profile_lower_bound,
)

__all__ = [
    "Bundle",
    "BusyTimeSchedule",
    "BusyVerificationError",
    "DemandProfile",
    "INTERVAL_ALGORITHMS",
    "PreemptivePiece",
    "PreemptiveSchedule",
    "UnboundedPlacement",
    "WidthBundle",
    "WidthInstance",
    "WidthJob",
    "WidthSchedule",
    "arrival_order",
    "assign_levels",
    "best_lower_bound",
    "brute_force_busy_time_interval",
    "chain_peeling_two_approx",
    "clique_greedy",
    "compute_demand_profile",
    "demand_profile_lower_bound",
    "earliest_fit_span",
    "exact_busy_time_flexible",
    "exact_busy_time_interval",
    "extract_chain",
    "extract_tracks",
    "first_fit",
    "fits_in_bundle",
    "greedy_throughput",
    "greedy_tracking",
    "greedy_unbounded_preemptive",
    "is_track",
    "kumar_rudra",
    "longest_track",
    "first_fit_with_widths",
    "khandekar_narrow_wide",
    "mass_lower_bound",
    "maximize_throughput_exact",
    "nested_adversarial_instance",
    "online_best_fit",
    "online_first_fit",
    "opt_infinity",
    "pad_to_multiple_of_g",
    "pin_instance",
    "preemptive_bounded",
    "proper_clique_exact",
    "proper_greedy",
    "proper_witness_set",
    "schedule_flexible",
    "span_search_exact",
    "span_lower_bound",
    "track_length",
    "width_mass_lower_bound",
    "width_profile_lower_bound",
    "two_color_level",
]
