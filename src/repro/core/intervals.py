"""Interval algebra: spans, unions, and the paper's *interesting intervals*.

Busy-time analysis (Section 4.1) is phrased entirely in terms of half-open
real intervals ``[a, b)``:

* ``ℓ(I) = b - a`` — the *length* of an interval (Definition 9);
* ``Sp(S)`` — the *span* of a set of intervals, i.e. the measure of its
  projection onto the time axis (Definition 10);
* *interesting intervals* (Definition 12) — maximal intervals in which no job
  begins or ends; the demand is uniform over each one, and there are at most
  ``2n`` of them.  :func:`raw_demand_segments` finds them and counts each
  one's raw demand ``|A(I)|`` (Definition 11) in a single O(n log n) pass.

All functions treat intervals as ``(start, end)`` tuples with
``start <= end``; empty intervals are tolerated and contribute nothing.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from .jobs import TIME_EPS, Instance

__all__ = [
    "length",
    "total_length",
    "merge_intervals",
    "span",
    "subtract",
    "interesting_intervals",
    "raw_demand_segments",
    "coverage_counts",
]

Interval = tuple[float, float]


def length(interval: Interval) -> float:
    """``ℓ([a, b)) = b - a`` (Definition 9)."""
    a, b = interval
    return max(0.0, b - a)


def total_length(intervals: Iterable[Interval]) -> float:
    """Sum of lengths, counting overlaps multiply (the *mass* ``ℓ(S)``)."""
    return sum(length(iv) for iv in intervals)


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Normalize a collection of intervals into disjoint, sorted intervals.

    Adjacent intervals (touching within :data:`TIME_EPS`) are coalesced, so
    the output is the canonical representation of the union.
    """
    ivs = sorted((a, b) for a, b in intervals if b - a > TIME_EPS)
    merged: list[Interval] = []
    for a, b in ivs:
        if merged and a <= merged[-1][1] + TIME_EPS:
            prev_a, prev_b = merged[-1]
            merged[-1] = (prev_a, max(prev_b, b))
        else:
            merged.append((a, b))
    return merged


def span(intervals: Iterable[Interval]) -> float:
    """``Sp(S)``: measure of the union of the intervals (Definition 10)."""
    return sum(b - a for a, b in merge_intervals(intervals))


def subtract(base: Interval, pieces: Iterable[Interval]) -> list[Interval]:
    """Remove ``pieces`` from ``base``, returning the remaining sub-intervals."""
    remaining: list[Interval] = [base]
    for cut in merge_intervals(pieces):
        nxt: list[Interval] = []
        for a, b in remaining:
            lo, hi = cut
            if hi <= a + TIME_EPS or lo >= b - TIME_EPS:
                nxt.append((a, b))
                continue
            if lo > a + TIME_EPS:
                nxt.append((a, lo))
            if hi < b - TIME_EPS:
                nxt.append((hi, b))
        remaining = nxt
    return [iv for iv in remaining if length(iv) > TIME_EPS]


def interesting_intervals(instance: Instance) -> list[Interval]:
    """Definition 12: maximal intervals in which no job begins or ends.

    The returned intervals partition ``[min_j r_j, max_j d_j)`` at every
    release time and deadline; segments not covered by any job window are
    *excluded* (demand zero there, and no busy-time algorithm ever opens a
    machine over them).  There are at most ``2n - 1`` segments total.
    Coverage is by window, so flexible instances work too (the flexible
    MILP builders use them).  O(n log n): see :func:`raw_demand_segments`.
    """
    return raw_demand_segments(instance)[0]


def raw_demand_segments(
    instance: Instance,
) -> tuple[list[Interval], list[int]]:
    """The interesting intervals together with their raw demands ``|A(I)|``.

    Each segment's demand is the number of windows live (in the sense of
    :meth:`Job.is_live_at`) at its midpoint ``t``.  With the values
    ``r_j - ε`` and ``d_j - ε`` sorted once, that is
    ``#{r_j - ε <= t} - #{d_j - ε <= t}``: two bisections per segment, so
    the whole pass is O(n log n).  Zero-demand segments are dropped.
    """
    starts = sorted(j.release - TIME_EPS for j in instance.jobs)
    # A window may end up to ε before it starts (a Job only needs
    # d_j - r_j >= p_j - ε); such a job is never live, and max() makes its
    # two terms cancel.
    ends = sorted(max(j.release, j.deadline) - TIME_EPS for j in instance.jobs)
    points = instance.event_points()
    segments: list[Interval] = []
    raw: list[int] = []
    for a, b in zip(points, points[1:]):
        if b - a <= TIME_EPS:
            continue
        mid = 0.5 * (a + b)
        count = bisect_right(starts, mid) - bisect_right(ends, mid)
        if count > 0:
            segments.append((a, b))
            raw.append(count)
    return segments, raw


def coverage_counts(
    intervals: Sequence[Interval],
) -> list[tuple[Interval, int]]:
    """Decompose the plane into segments with the number of covering intervals.

    Returns ``(segment, count)`` pairs over the union of the inputs; segments
    with zero coverage are omitted.  This is the continuous analogue of the
    raw demand ``|A(t)|`` for arbitrary interval sets (used to verify machine
    capacity constraints in busy-time schedules).
    """
    events: list[tuple[float, int]] = []
    for a, b in intervals:
        if b - a > TIME_EPS:
            events.append((a, +1))
            events.append((b, -1))
    if not events:
        return []
    events.sort()
    out: list[tuple[Interval, int]] = []
    depth = 0
    prev = events[0][0]
    i = 0
    while i < len(events):
        t = events[i][0]
        if t - prev > TIME_EPS and depth > 0:
            out.append(((prev, t), depth))
        while i < len(events) and abs(events[i][0] - t) <= TIME_EPS:
            depth += events[i][1]
            i += 1
        prev = t
    return out
