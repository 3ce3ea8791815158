"""Active-time schedules: representation, cost and verification.

A feasible active-time solution (Section 2) is a set ``A`` of active slots
plus an assignment of job units to slots such that

* every unit lands in an active slot inside its job's window,
* at most one unit of any job per slot,
* at most ``g`` job units per slot,
* job ``j`` receives exactly ``p_j`` units.

``cost = |A|`` — the number of active slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_integral
from ..flow.feasibility import ActiveTimeFeasibility

__all__ = ["ActiveTimeSchedule", "VerificationError", "schedule_from_slots"]


class VerificationError(AssertionError):
    """Raised when a schedule violates a model constraint."""


@dataclass(frozen=True)
class ActiveTimeSchedule:
    """A complete feasible solution to the active-time problem.

    Attributes
    ----------
    instance, g:
        The problem solved.
    active_slots:
        Sorted tuple of active (open) slots.
    assignment:
        Mapping ``job id -> sorted tuple of slots`` hosting one unit each.
    """

    instance: Instance
    g: int
    active_slots: tuple[int, ...]
    assignment: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def cost(self) -> int:
        """Number of active slots — the objective of Section 2."""
        return len(self.active_slots)

    def slot_loads(self) -> dict[int, int]:
        """Units scheduled per active slot."""
        loads = {t: 0 for t in self.active_slots}
        for slots in self.assignment.values():
            for t in slots:
                loads[t] = loads.get(t, 0) + 1
        return loads

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check every model constraint; raises :class:`VerificationError`.

        This is the ground-truth oracle used throughout the test-suite: any
        schedule produced by any algorithm must pass.
        """
        active = set(self.active_slots)
        if len(active) != len(self.active_slots):
            raise VerificationError("duplicate active slots")
        if tuple(sorted(self.active_slots)) != tuple(self.active_slots):
            raise VerificationError("active slots not sorted")

        # reversed: the first job with an id wins, as in Instance.job_by_id
        jobs = {j.id: j for j in reversed(self.instance.jobs)}
        seen_jobs = set()
        loads: dict[int, int] = {}
        for jid, slots in self.assignment.items():
            job = jobs.get(jid)
            if job is None:
                raise KeyError(f"no job with id {jid}")
            seen_jobs.add(jid)
            if len(set(slots)) != len(slots):
                raise VerificationError(
                    f"job {jid} scheduled twice in one slot"
                )
            if len(slots) != job.integral_length():
                raise VerificationError(
                    f"job {jid} received {len(slots)} units, needs "
                    f"{job.integral_length()}"
                )
            for t in slots:
                if t not in active:
                    raise VerificationError(
                        f"job {jid} assigned to inactive slot {t}"
                    )
                if not job.is_live_in_slot(t):
                    raise VerificationError(
                        f"job {jid} assigned outside its window at slot {t}"
                    )
                loads[t] = loads.get(t, 0) + 1

        missing = jobs.keys() - seen_jobs
        if missing:
            raise VerificationError(f"jobs without assignment: {sorted(missing)}")

        for t, load in loads.items():
            if load > self.g:
                raise VerificationError(
                    f"slot {t} hosts {load} units, capacity is {self.g}"
                )


def schedule_from_slots(
    instance: Instance,
    g: int,
    active_slots: Iterable[int],
    *,
    oracle: ActiveTimeFeasibility | None = None,
) -> ActiveTimeSchedule:
    """Materialize a schedule from an active-slot set via the flow network.

    The paper's algorithms all output a slot set first and recover the
    integral assignment with one max-flow computation (integrality of flow);
    this helper performs exactly that step.

    Raises
    ------
    ValueError
        If the slot set is infeasible for the instance.
    """
    require_integral(instance, "schedule extraction")
    require_capacity(g)
    slots = tuple(sorted(set(active_slots)))
    if oracle is None:
        oracle = ActiveTimeFeasibility(instance, g)
    assignment = oracle.assignment(slots)
    if assignment is None:
        raise ValueError(
            f"active slot set of size {len(slots)} is infeasible for g={g}"
        )
    return ActiveTimeSchedule(
        instance=instance,
        g=g,
        active_slots=slots,
        assignment={jid: tuple(ts) for jid, ts in assignment.items()},
    )
