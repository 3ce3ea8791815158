"""Exact active time for unit-length jobs (Chang–Gabow–Khuller special case).

The paper recalls that unit jobs admit a fast exact algorithm [2].  We
implement the *lazy activation* greedy: sweep slots left to right starting
from the all-open solution and close every slot whose removal keeps the
instance feasible, so early slots close first.  For unit jobs the
resulting minimal feasible solution is minimum.

Each feasibility probe is the bipartite matching/flow of Figure 2, and the
left-to-right closing order makes the construction equivalent to the
"activate as late as possible, only when forced" greedy — for unit jobs the
set system of feasible activation sets is a transversal matroid restricted to
intervals, where greedy deletion against a fixed order is optimal.  (The
test-suite cross-validates the output against the exact MILP on thousands of
random unit instances; for *non-unit* jobs this greedy is only the Theorem-1
3-approximation, which Figure 3 shows is tight.)
"""

from __future__ import annotations

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_integral, require_unit_jobs
from .minimal_feasible import minimal_feasible_schedule
from .schedule import ActiveTimeSchedule

__all__ = ["unit_jobs_optimal_schedule"]


def unit_jobs_optimal_schedule(instance: Instance, g: int) -> ActiveTimeSchedule:
    """Optimal active-time schedule for an all-unit-length instance.

    Raises
    ------
    ValueError
        When some job is not unit length, or the instance is infeasible at
        capacity ``g``.
    """
    require_integral(instance)
    require_unit_jobs(instance)
    require_capacity(g)
    return minimal_feasible_schedule(instance, g)
