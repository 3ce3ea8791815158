"""FIRSTFIT — the 4-approximate baseline of Flammini et al. [5].

Jobs are considered in non-increasing order of length; each is packed into the
first (lowest-index) bundle where adding it keeps at most ``g`` jobs running
simultaneously, opening a new bundle when none fits.  Flammini et al. prove a
worst-case ratio of 4 and exhibit instances where FIRSTFIT pays 3x the
optimum; GREEDYTRACKING (Theorem 5) improves the guarantee to 3.
"""

from __future__ import annotations

from typing import Sequence

from ..core.intervals import coverage_counts
from ..core.jobs import Job, Instance
from ..core.validation import require_capacity, require_interval_jobs
from .schedule import BusyTimeSchedule

__all__ = ["first_fit", "fits_in_bundle"]


def fits_in_bundle(members: Sequence[Job], job: Job, g: int) -> bool:
    """Can ``job`` join ``members`` without exceeding ``g`` simultaneous jobs?

    Only the coverage inside ``job``'s own interval matters; we count the
    members overlapping it and check the peak is below ``g``.
    """
    window = job.window
    overlapping = [
        m.window
        for m in members
        if m.release < window[1] and m.deadline > window[0]
    ]
    if len(overlapping) < g:
        return True
    # Peak coverage of existing members restricted to job's interval.
    clipped = [
        (max(a, window[0]), min(b, window[1])) for a, b in overlapping
    ]
    peak = max((c for _, c in coverage_counts(clipped)), default=0)
    return peak < g


def first_fit(instance: Instance, g: int) -> BusyTimeSchedule:
    """Run FIRSTFIT on an interval instance, longest job first."""
    require_interval_jobs(instance, "FIRSTFIT")
    require_capacity(g)

    ordered = sorted(instance.jobs, key=lambda j: (-j.length, j.release, j.id))
    bundles: list[list[Job]] = []
    for job in ordered:
        for members in bundles:
            if fits_in_bundle(members, job, g):
                members.append(job)
                break
        else:
            bundles.append([job])

    return BusyTimeSchedule.from_bundle_jobs(instance, g, bundles)
