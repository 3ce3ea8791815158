"""Kumar–Rudra-style level assignment with parity splitting (Appendix A.1).

Kumar and Rudra's fiber-minimization algorithm assigns jobs to *levels* within
the demand profile — level ``l`` only exists over ``{t : |A(t)| >= l}`` — with
at most two mutually overlapping jobs per level, then resolves each group of
``g`` levels onto **two** machines, separating same-level overlaps by a
2-coloring (their "parity based assignment").  The cost is then at most

    sum_k 2 * Sp({t : |A(t)| >= (k-1)g + 1})  =  2 * profile.

This module implements that scheme with a greedy level chooser: process jobs
by release time and give each the lowest level with room for it.  Whenever
some level inside the demand region has room, the lowest level with room is
one of them; when none has, the level taken can lie outside the region, so
the returned schedule carries a runtime certificate check against the
rigorous bound ``2 * profile``, and :func:`repro.busytime.two_approx.chain_peeling_two_approx`
provides the variant whose guarantee holds unconditionally by construction.
Dummy-job padding (Appendix A.1) is applied first so the raw demand is a
multiple of ``g`` everywhere, exactly as the paper prescribes.

Per-level overlap graphs are triangle-free interval graphs (at most 2 jobs
overlap pointwise), hence chordal and triangle-free — i.e. forests — so the
2-coloring always exists.

Cost: padding leaves ``n' <= (2g - 1) n`` jobs.  The level pass keeps two
deadlines per level and scans the ``L`` levels for each job (``L`` is at
most the peak padded demand, ``max_t |A(t)| + g - 1``), and each level's
overlap edges come from one release-ordered sweep, so a call is
``O(n' log n' + n' L)``: near-linear while the peak demand is bounded.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from ..core.jobs import TIME_EPS, Instance, Job
from ..core.validation import require_capacity, require_interval_jobs
from .demand_profile import (
    DUMMY_LABEL,
    compute_demand_profile,
    pad_to_multiple_of_g,
)
from .schedule import BusyTimeSchedule

__all__ = ["kumar_rudra", "assign_levels", "two_color_level"]


def assign_levels(padded: Instance, g: int) -> dict[int, int]:
    """Assign each padded job to a level (1-based), <= 2 overlapping per level.

    Jobs are processed by release time; each takes the lowest level that
    currently has at most one assigned job live at the release time, or a
    new level when none has.  Because every previously assigned job
    overlapping the newcomer is live at its release, this caps the pointwise
    overlap per level at two globally.  The demand region needs no separate
    check: it is a prefix of the levels (level <= min raw demand over the
    job's span), so whenever a level inside it has room, the lowest level
    with room is inside it too.

    A level keeps only its two latest deadlines.  Jobs arrive in release
    order and a level never holds more than two live jobs, so those two
    deadlines decide whether a third job fits.
    """
    ordered = sorted(padded.jobs, key=lambda j: (j.release, -j.length, j.id))
    level_of: dict[int, int] = {}
    # latest[l] = (latest, second-latest) deadline on level l+1
    latest: list[tuple[float, float]] = []
    for job in ordered:
        t = job.release + TIME_EPS
        chosen = next(
            (l for l, (_, second) in enumerate(latest) if second <= t),
            len(latest),
        )
        if chosen == len(latest):
            latest.append((-math.inf, -math.inf))
        first, second = latest[chosen]
        d = job.deadline
        latest[chosen] = (max(first, d), max(second, min(first, d)))
        level_of[job.id] = chosen + 1
    return level_of


def two_color_level(jobs: list[Job]) -> dict[int, int]:
    """2-color the overlap graph of one level's jobs (a forest).

    Returns ``job id -> 0/1``; each component's first job in ``jobs`` order
    gets colour 0.  Raises if the level is not 2-colorable, which would mean
    three jobs overlap at a point — excluded by the level assignment
    invariant.  The edges come from a release-ordered sweep that keeps the
    jobs still live in a deadline heap, so each job is compared only with
    the jobs live at its release.
    """
    adj: dict[int, list[int]] = {j.id: [] for j in jobs}
    live: list[tuple[float, int, Job]] = []
    for i, b in sorted(enumerate(jobs), key=lambda p: p[1].release):
        while live and live[0][0] <= b.release:
            heapq.heappop(live)
        for _, _, a in live:
            if a.release < b.deadline - TIME_EPS:
                adj[a.id].append(b.id)
                adj[b.id].append(a.id)
        heapq.heappush(live, (b.deadline - TIME_EPS, i, b))
    color: dict[int, int] = {}
    for j in jobs:
        if j.id in color:
            continue
        color[j.id] = 0
        queue = deque([j.id])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    raise RuntimeError(
                        "level overlap graph not bipartite — more than two "
                        "jobs overlap at a point"
                    )
    return color


def kumar_rudra(instance: Instance, g: int) -> BusyTimeSchedule:
    """Run the Kumar–Rudra-style 2-approximation on an interval instance.

    Pads the instance (Appendix A.1), assigns levels, groups ``g`` levels per
    machine pair with a parity split, strips the dummies and verifies the
    ``2 * profile`` certificate.
    """
    require_interval_jobs(instance, "Kumar-Rudra")
    require_capacity(g)
    if instance.n == 0:
        return BusyTimeSchedule.from_bundle_jobs(instance, g, [])

    padded, _dummy_ids = pad_to_multiple_of_g(instance, g)
    level_of = assign_levels(padded, g)
    max_level = max(level_of.values())

    jobs_by_level: dict[int, list[Job]] = {}
    for job in padded.jobs:
        jobs_by_level.setdefault(level_of[job.id], []).append(job)

    groups: list[list[Job]] = []
    num_groups = -(-max_level // g)
    for k in range(num_groups):
        lo, hi = k * g + 1, (k + 1) * g
        machine0: list[Job] = []
        machine1: list[Job] = []
        for l in range(lo, hi + 1):
            members = jobs_by_level.get(l, [])
            if not members:
                continue
            coloring = two_color_level(members)
            for job in members:
                (machine0 if coloring[job.id] == 0 else machine1).append(job)
        for machine in (machine0, machine1):
            real = [j for j in machine if j.label != DUMMY_LABEL]
            if real:
                groups.append(real)

    schedule = BusyTimeSchedule.from_bundle_jobs(instance, g, groups)
    certificate = 2.0 * compute_demand_profile(instance, g).cost
    if schedule.total_busy_time > certificate + 1e-6:
        raise RuntimeError(
            "Kumar-Rudra level assignment exceeded the 2x profile "
            f"certificate: {schedule.total_busy_time} > {certificate}"
        )
    return schedule
