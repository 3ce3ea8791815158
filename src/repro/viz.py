"""ASCII visualization of instances and schedules.

Terminal-friendly Gantt-style renderings used by the examples and handy in
notebooks and bug reports — no plotting dependency required.

* :func:`render_instance` — one row per job window (``.`` = slack);
* :func:`render_active_schedule` — slot occupancy matrix, ``#`` for full;
* :func:`render_busy_schedule` — one block per machine with job rows;
* :func:`render_demand_profile` — the Observation-4 staircase.
"""

from __future__ import annotations

from .activetime.schedule import ActiveTimeSchedule
from .busytime.demand_profile import DemandProfile
from .busytime.schedule import BusyTimeSchedule
from .core.jobs import Instance

__all__ = [
    "render_instance",
    "render_active_schedule",
    "render_busy_schedule",
    "render_demand_profile",
]

#: Total character budget for the time axis.
WIDTH = 64


def _scale(lo: float, hi: float):
    """Return a position mapper ``time -> column`` for the given extent."""
    extent = max(hi - lo, 1e-9)

    def to_col(t: float) -> int:
        return int(round((t - lo) / extent * (WIDTH - 1)))

    return to_col


def render_instance(instance: Instance) -> str:
    """Rows of ``====`` (length) inside ``....`` (window slack)."""
    if instance.n == 0:
        return "(empty instance)"
    lo = instance.earliest_release
    hi = instance.latest_deadline
    to_col = _scale(lo, hi)
    lines = [f"t: [{lo:g}, {hi:g})"]
    for job in instance.jobs:
        row = [" "] * WIDTH
        a, b = to_col(job.release), to_col(job.deadline)
        for c in range(a, max(a + 1, b)):
            row[c] = "."
        # draw the mandatory mass anchored at the release for flexible jobs
        fill_end = to_col(job.release + job.length)
        for c in range(a, max(a + 1, fill_end)):
            row[c] = "="
        label = f"j{job.id:<3}"
        lines.append(f"{label} |{''.join(row)}|")
    return "\n".join(lines)


def render_active_schedule(schedule: ActiveTimeSchedule) -> str:
    """Slots as columns; per slot the jobs scheduled there, ``#`` when full."""
    instance = schedule.instance
    if instance.n == 0:
        return "(empty schedule)"
    T = instance.horizon
    loads = schedule.slot_loads()
    header = "slot  " + "".join(
        f"{t:>3}" for t in range(1, T + 1)
    )
    onoff = "on?   " + "".join(
        "  #" if t in loads and loads[t] == schedule.g
        else ("  +" if t in set(schedule.active_slots) else "  .")
        for t in range(1, T + 1)
    )
    lines = [header, onoff]
    for job in instance.jobs:
        slots = set(schedule.assignment.get(job.id, ()))
        row = "".join(
            "  x" if t in slots else ("  ." if job.is_live_in_slot(t) else "   ")
            for t in range(1, T + 1)
        )
        lines.append(f"j{job.id:<4} {row}")
    lines.append(
        f"cost: {schedule.cost} active slots "
        f"(# = full, + = open, x = unit scheduled, . = window)"
    )
    return "\n".join(lines)


def render_busy_schedule(schedule: BusyTimeSchedule) -> str:
    """One section per machine; jobs as bars, busy periods marked below."""
    if not schedule.bundles:
        return "(no machines used)"
    lo = min(j.release for b in schedule.bundles for j in b.jobs)
    hi = max(j.deadline for b in schedule.bundles for j in b.jobs)
    to_col = _scale(lo, hi)
    lines = [f"t: [{lo:g}, {hi:g})"]
    for k, bundle in enumerate(schedule.bundles):
        lines.append(f"machine {k} (busy {bundle.busy_time:g}):")
        for job in sorted(bundle.jobs, key=lambda j: j.release):
            row = [" "] * WIDTH
            a, b = to_col(job.release), to_col(job.deadline)
            for c in range(a, max(a + 1, b)):
                row[c] = "="
            lines.append(f"  j{job.id:<3} |{''.join(row)}|")
        busy_row = [" "] * WIDTH
        for a, b in bundle.busy_intervals:
            for c in range(to_col(a), max(to_col(a) + 1, to_col(b))):
                busy_row[c] = "^"
        lines.append(f"  busy |{''.join(busy_row)}|")
    lines.append(f"total busy time: {schedule.total_busy_time:g}")
    return "\n".join(lines)


def render_demand_profile(profile: DemandProfile) -> str:
    """The staircase ``D(t)`` as stacked rows (top row = peak demand)."""
    if not profile.segments:
        return "(empty profile)"
    lo = profile.segments[0][0]
    hi = profile.segments[-1][1]
    to_col = _scale(lo, hi)
    peak = profile.max_demand
    lines = [f"t: [{lo:g}, {hi:g}), g={profile.g}, cost={profile.cost:g}"]
    for level in range(peak, 0, -1):
        row = [" "] * WIDTH
        for i, (a, b) in enumerate(profile.segments):
            if profile.demand(i) >= level:
                for c in range(to_col(a), max(to_col(a) + 1, to_col(b))):
                    row[c] = "█"
        lines.append(f"D>={level} |{''.join(row)}|")
    return "\n".join(lines)
