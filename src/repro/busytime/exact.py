"""Exact busy-time optima for ratio measurement.

Busy time for interval jobs is NP-hard already at ``g = 2`` [14], so exact
values come from the HiGHS MILP (:mod:`repro.lp.milp`); the tests check it
against an independent set-partition search on tiny instances.
"""

from __future__ import annotations

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_interval_jobs
from ..lp.milp import solve_busy_time_interval_exact
from .schedule import BusyTimeSchedule

__all__ = ["exact_busy_time_interval"]


def exact_busy_time_interval(
    instance: Instance, g: int, *, backend: str | None = None
) -> BusyTimeSchedule:
    """Optimal busy-time schedule for interval jobs (MILP).

    ``backend`` selects the MILP backend (see :mod:`repro.solvers`).
    """
    require_interval_jobs(instance)
    require_capacity(g)
    if instance.n == 0:
        return BusyTimeSchedule.from_bundle_jobs(instance, g, [])
    result = solve_busy_time_interval_exact(instance, g, backend=backend)
    groups = [
        [instance.job_by_id(jid) for jid in bundle]
        for bundle in result.witness["bundles"]
    ]
    return BusyTimeSchedule.from_bundle_jobs(instance, g, groups)
