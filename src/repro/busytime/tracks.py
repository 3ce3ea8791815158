"""Tracks: sets of pairwise-disjoint interval jobs (Definition 14).

GREEDYTRACKING repeatedly needs a *maximum-length* track — a maximum-weight
independent set of intervals with weight = length.  That is the classic
weighted interval scheduling problem, solved exactly by the sort-by-end /
binary-search dynamic program [CLRS], as the paper notes.

Touching intervals (one ends exactly where the next starts) count as disjoint:
half-open windows ``[a, b)`` and ``[b, c)`` never run simultaneously.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from ..core.jobs import TIME_EPS, Job

__all__ = ["longest_track"]


def longest_track(jobs: Sequence[Job]) -> list[Job]:
    """A maximum-total-length set of pairwise-disjoint interval jobs.

    Exact weighted-interval-scheduling DP: ``O(n log n)``.

    Parameters
    ----------
    jobs:
        Interval jobs (start times fixed at their release times).  Flexible
        jobs are rejected — GREEDYTRACKING runs after the instance has been
        converted to interval jobs.

    Returns
    -------
    The selected jobs sorted by start time (empty when ``jobs`` is empty).
    """
    items = list(jobs)
    for j in items:
        if not j.is_interval:
            raise ValueError(
                f"longest_track requires interval jobs; job {j.id} is flexible"
            )
    if not items:
        return []

    items.sort(key=lambda j: (j.deadline, j.release, j.id))
    ends = [j.deadline for j in items]
    n = len(items)

    # pred[i]: rightmost job index ending at or before items[i] starts.
    pred = [0] * n
    for i, j in enumerate(items):
        # bisect over the sorted end times; TIME_EPS-nudge makes a job whose
        # end coincides with j's start count as compatible.
        pred[i] = bisect.bisect_right(ends, j.release + TIME_EPS, 0, i)

    best = [0.0] * (n + 1)
    take = [False] * n
    for i in range(1, n + 1):
        job = items[i - 1]
        with_job = best[pred[i - 1]] + job.length
        without = best[i - 1]
        if with_job > without + TIME_EPS:
            best[i] = with_job
            take[i - 1] = True
        else:
            best[i] = without

    chosen: list[Job] = []
    i = n
    while i > 0:
        if take[i - 1]:
            chosen.append(items[i - 1])
            i = pred[i - 1]
        else:
            i -= 1
    chosen.reverse()
    return chosen
