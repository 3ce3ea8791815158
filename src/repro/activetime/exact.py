"""Exact active-time optima via the MILP.

The paper conjectures the active-time problem is NP-hard; no polynomial exact
algorithm is known for general lengths.  For measuring approximation ratios
we therefore use the HiGHS MILP (:func:`repro.lp.milp.solve_active_time_exact`);
the tests check it against an independent brute force over slot subsets.
"""

from __future__ import annotations

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_integral
from ..lp.milp import solve_active_time_exact
from .schedule import ActiveTimeSchedule, schedule_from_slots

__all__ = [
    "exact_active_time",
    "lower_bound_mass",
]


def exact_active_time(
    instance: Instance, g: int, *, backend: str | None = None
) -> ActiveTimeSchedule:
    """Optimal active-time schedule via the exact MILP.

    ``backend`` selects the MILP backend (see :mod:`repro.solvers`).
    """
    require_integral(instance)
    require_capacity(g)
    if instance.n == 0:
        return ActiveTimeSchedule(instance, g, tuple(), {})
    result = solve_active_time_exact(instance, g, backend=backend)
    return schedule_from_slots(instance, g, result.witness["active_slots"])


def lower_bound_mass(instance: Instance, g: int) -> int:
    """``ceil(P / g)`` — the full-slot lower bound used in Theorem 1."""
    require_capacity(g)
    if instance.n == 0:
        return 0
    total = int(round(instance.total_length))
    return -(-total // g)
