"""Minimal feasible solutions — the 3-approximation of Theorem 1.

Definition 4: a feasible set of active slots is *minimal* when closing any
single slot destroys feasibility.  Theorem 1 shows that **any** minimal
feasible solution costs at most ``3 * OPT`` (and Figure 3 shows this is
asymptotically tight).

The algorithm is exactly the paper's: start from a feasible slot set and keep
closing slots, in any order, while the rest remains feasible (feasibility is
the Figure-2 max-flow probe).  The closing order does not affect the
worst-case guarantee but changes which minimal solution is found, so it is a
caller-visible knob — the Figure-3 experiment drives it adversarially, and
:mod:`repro.activetime.unit_jobs` relies on the left-to-right order being
optimal for unit jobs.
"""

from __future__ import annotations

from typing import Iterable, Literal, Sequence

import numpy as np

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_integral
from ..flow.feasibility import ActiveTimeFeasibility
from .schedule import ActiveTimeSchedule, schedule_from_slots

__all__ = ["minimal_feasible_schedule", "close_slots_greedily", "CloseOrder"]

CloseOrder = Literal["left", "right", "inside_out", "random"]


def _ordering(
    order: CloseOrder | Sequence[int],
    candidates: list[int],
    rng: np.random.Generator | None,
) -> list[int]:
    """Resolve the closing order specification into a concrete slot list.

    An explicit order keeps only the first time it names a slot: closing
    only shrinks the open set, so a close that failed once fails again.
    """
    if not isinstance(order, str):
        allowed = set(candidates)
        explicit = list(dict.fromkeys(t for t in order if t in allowed))
        named = set(explicit)
        return explicit + [t for t in candidates if t not in named]
    if order == "left":
        return sorted(candidates)
    if order == "right":
        return sorted(candidates, reverse=True)
    if order == "inside_out":
        mid = (min(candidates) + max(candidates)) / 2 if candidates else 0
        return sorted(candidates, key=lambda t: abs(t - mid))
    if order == "random":
        gen = rng if rng is not None else np.random.default_rng()
        shuffled = list(candidates)
        gen.shuffle(shuffled)
        return shuffled
    raise ValueError(f"unknown closing order {order!r}")


def close_slots_greedily(
    instance: Instance,
    g: int,
    start_slots: Iterable[int],
    *,
    order: CloseOrder | Sequence[int] = "left",
    rng: np.random.Generator | None = None,
    oracle: ActiveTimeFeasibility | None = None,
) -> list[int]:
    """Close slots of ``start_slots`` one at a time while feasibility holds.

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

    for t in _ordering(order, sorted(active), rng):
        members = live[t] if 1 <= t < len(live) else ()
        if any(slack[k] == 0 for k in members):
            continue
        trial = active - {t}
        if oracle.is_feasible(trial):
            active = trial
            for k in members:
                slack[k] -= 1
    return sorted(active)


def minimal_feasible_schedule(
    instance: Instance,
    g: int,
    *,
    order: CloseOrder | Sequence[int] = "left",
    rng: np.random.Generator | None = None,
    start_slots: Iterable[int] | None = None,
) -> ActiveTimeSchedule:
    """Compute a minimal feasible schedule (Theorem 1's 3-approximation).

    Parameters
    ----------
    order:
        Slot-closing order: ``"left"``, ``"right"``, ``"inside_out"``,
        ``"random"`` (seeded via ``rng``), or an explicit slot sequence to try
        first (remaining slots are appended in increasing order).  The paper
        allows *any* order (Definition 4's guarantee is order-free); the
        Figure-3 tightness experiment passes an adversarial explicit order.
    start_slots:
        Initial feasible set; defaults to all slots ``1..T``.

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
    initial = (
        list(start_slots)
        if start_slots is not None
        else list(range(1, instance.horizon + 1))
    )
    slots = close_slots_greedily(
        instance, g, initial, order=order, rng=rng, oracle=oracle
    )
    return schedule_from_slots(instance, g, slots, oracle=oracle)
