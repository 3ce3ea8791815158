"""Active-time scheduling: Theorem 1 (minimal feasible) and Theorem 2 (LP rounding)."""

from .charging import ChargeRecord, ChargingError, ChargingLedger
from .exact import brute_force_active_time, exact_active_time, lower_bound_mass
from .minimal_feasible import close_slots_greedily, minimal_feasible_schedule
from .rightshift import RightShiftedSolution, classify_slot, right_shift, snap
from .rounding import IterationRecord, RoundedSolution, round_active_time
from .schedule import ActiveTimeSchedule, VerificationError, schedule_from_slots
from .unit_jobs import unit_jobs_optimal_schedule

__all__ = [
    "ActiveTimeSchedule",
    "ChargeRecord",
    "ChargingError",
    "ChargingLedger",
    "IterationRecord",
    "RightShiftedSolution",
    "RoundedSolution",
    "VerificationError",
    "brute_force_active_time",
    "classify_slot",
    "close_slots_greedily",
    "exact_active_time",
    "lower_bound_mass",
    "minimal_feasible_schedule",
    "right_shift",
    "round_active_time",
    "schedule_from_slots",
    "snap",
    "unit_jobs_optimal_schedule",
]
