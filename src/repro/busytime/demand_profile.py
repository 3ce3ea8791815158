"""The demand profile (Definitions 11–13) and dummy-job padding.

For an interval-job instance, the *raw demand* ``|A(t)|`` counts jobs whose
interval covers ``t``; the *demand* is ``D(t) = ceil(|A(t)| / g)``.  Demand is
constant on each interesting interval, so the whole profile is a list of
``(segment, raw_demand)`` pairs — at most ``2n`` of them — counted in one
O(n log n) pass by :func:`repro.core.intervals.raw_demand_segments` (two
bisections per segment).

The profile cost ``sum_i D(I_i) * ℓ(I_i)`` lower-bounds the optimal busy time
(Observation 4) and is the quantity the 2-approximation algorithms charge.
Those algorithms additionally assume the raw demand is a multiple of ``g``
everywhere; :func:`pad_to_multiple_of_g` adds dummy jobs spanning individual
segments to establish that property *without changing the profile cost*
(Appendix A.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.intervals import raw_demand_segments
from ..core.jobs import Instance, Job
from ..core.validation import require_capacity, require_interval_jobs

__all__ = ["DemandProfile", "compute_demand_profile", "pad_to_multiple_of_g"]

#: Label attached to padding jobs so downstream code can strip them.
DUMMY_LABEL = "__dummy__"


@dataclass(frozen=True)
class DemandProfile:
    """The demand profile of an interval instance for a given capacity.

    Attributes
    ----------
    segments:
        Interesting intervals ``(a, b)`` with positive raw demand, sorted.
    raw:
        ``|A(I_i)|`` per segment.
    g:
        Capacity used to convert raw demand to machine demand.
    """

    segments: tuple[tuple[float, float], ...]
    raw: tuple[int, ...]
    g: int

    def demand(self, i: int) -> int:
        """``D(I_i) = ceil(raw_i / g)``."""
        return -(-self.raw[i] // self.g)

    @property
    def demands(self) -> tuple[int, ...]:
        """Machine demand per segment."""
        return tuple(self.demand(i) for i in range(len(self.segments)))

    @property
    def cost(self) -> float:
        """``sum_i D(I_i) * ℓ(I_i)`` — Observation 4's lower bound."""
        return sum(
            self.demand(i) * (b - a)
            for i, (a, b) in enumerate(self.segments)
        )

    @property
    def max_demand(self) -> int:
        """Peak machine demand ``D_max``."""
        return max(self.demands, default=0)

    @property
    def span(self) -> float:
        """Total length of demanded segments — equals ``Sp(J)``."""
        return sum(b - a for a, b in self.segments)


def compute_demand_profile(instance: Instance, g: int) -> DemandProfile:
    """Compute the demand profile of an interval instance (Definition 13)."""
    require_interval_jobs(instance, "demand profile")
    require_capacity(g)
    segments, raw = raw_demand_segments(instance)
    return DemandProfile(segments=tuple(segments), raw=tuple(raw), g=g)


def pad_to_multiple_of_g(
    instance: Instance, g: int
) -> tuple[Instance, list[int]]:
    """Add dummy interval jobs so every segment's raw demand is ``g * D(I)``.

    Returns the padded instance together with the ids of the dummy jobs.
    Per Appendix A.1, if ``c*g < |A(I)| <= (c+1)*g`` then adding
    ``(c+1)*g - |A(I)|`` jobs spanning ``I`` leaves the demand profile (and
    hence the lower bound) unchanged.
    """
    require_interval_jobs(instance, "padding")
    require_capacity(g)
    profile = compute_demand_profile(instance, g)
    next_id = 1 + max((j.id for j in instance.jobs), default=-1)
    dummies: list[Job] = []
    for (a, b), raw in zip(profile.segments, profile.raw):
        target = -(-raw // g) * g
        for _ in range(target - raw):
            dummies.append(
                Job(
                    release=a,
                    deadline=b,
                    length=b - a,
                    id=next_id,
                    label=DUMMY_LABEL,
                )
            )
            next_id += 1
    padded = Instance(instance.jobs + tuple(dummies))
    return padded, [d.id for d in dummies]
