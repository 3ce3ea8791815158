"""Minimal feasible solutions — the 3-approximation of Theorem 1.

Definition 4: a feasible set of active slots is *minimal* when closing any
single slot destroys feasibility.  Theorem 1 shows that **any** minimal
feasible solution costs at most ``3 * OPT`` (and Figure 3 shows this is
asymptotically tight).

The algorithm is exactly the paper's: start from a feasible slot set and keep
closing slots while the rest remains feasible (feasibility is the Figure-2
max-flow probe).  Theorem 1 holds for any closing order; slots close left
to right, the order :mod:`repro.activetime.unit_jobs` relies on being
optimal for unit jobs.
"""

from __future__ import annotations

from typing import Iterable

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_integral
from ..flow.feasibility import ActiveTimeFeasibility
from .schedule import ActiveTimeSchedule, schedule_from_slots

__all__ = ["minimal_feasible_schedule", "close_slots_greedily"]


def close_slots_greedily(
    instance: Instance,
    g: int,
    start_slots: Iterable[int],
    *,
    oracle: ActiveTimeFeasibility | None = None,
) -> list[int]:
    """Close slots of ``start_slots`` left to right while feasibility holds.

    Returns the resulting minimal feasible slot set (sorted).  Raises
    ``ValueError`` when ``start_slots`` is not feasible to begin with.

    A close is rejected without a flow probe when some job live in the
    slot has exactly ``p_j`` open slots left in its window: closing the
    slot would leave that job too few, so the close is infeasible in every
    order and the probe would only confirm it.
    """
    require_integral(instance)
    require_capacity(g)
    if oracle is None:
        oracle = ActiveTimeFeasibility(instance, g)
    active = set(start_slots)
    if not oracle.is_feasible(active):
        raise ValueError("starting slot set is infeasible; nothing to minimize")

    # slack[k]: open slots in job k's window minus its length; live[t]:
    # the jobs whose window contains slot t.
    live: list[list[int]] = [[] for _ in range(instance.horizon + 1)]
    slack: list[int] = []
    for k, job in enumerate(instance.jobs):
        window = job.feasible_slots()
        slack.append(len(active.intersection(window)) - job.integral_length())
        for t in window:
            live[t].append(k)

    for t in sorted(active):
        members = live[t] if 1 <= t < len(live) else ()
        if any(slack[k] == 0 for k in members):
            continue
        trial = active - {t}
        if oracle.is_feasible(trial):
            active = trial
            for k in members:
                slack[k] -= 1
    return sorted(active)


def minimal_feasible_schedule(instance: Instance, g: int) -> ActiveTimeSchedule:
    """Compute a minimal feasible schedule (Theorem 1's 3-approximation),
    closing slots left to right from every slot ``1..T`` open.

    Raises
    ------
    ValueError
        When the instance is infeasible even with every slot active.
    """
    require_integral(instance)
    require_capacity(g)
    if instance.n == 0:
        return ActiveTimeSchedule(instance, g, tuple(), {})
    oracle = ActiveTimeFeasibility(instance, g)
    slots = close_slots_greedily(
        instance, g, range(1, instance.horizon + 1), oracle=oracle
    )
    return schedule_from_slots(instance, g, slots, oracle=oracle)
