"""LP/MILP substrate: the Section-3 program, its relaxation and exact oracles."""

from .milp import (
    MilpResult,
    solve_active_time_exact,
    solve_busy_time_interval_exact,
    solve_unbounded_span_exact,
)
from .model import ActiveTimeModel, build_active_time_model
from .solve import ActiveTimeLPSolution, solve_active_time_lp

__all__ = [
    "ActiveTimeLPSolution",
    "ActiveTimeModel",
    "MilpResult",
    "build_active_time_model",
    "solve_active_time_exact",
    "solve_busy_time_interval_exact",
    "solve_unbounded_span_exact",
    "solve_active_time_lp",
]
