"""Preemptive busy time: the exact greedy (Theorem 6) and 2-approx (Theorem 7).

In the preemptive variant a job may be split into pieces — processed on any
machines at any times within its window — subject to at most one machine
working on it at each instant and at most ``g`` jobs per machine.

* **Theorem 6** (``g`` unbounded): the greedy that repeatedly opens the
  interval ``[d_1 - l_max, d_1)`` — where ``d_1`` is the earliest remaining
  deadline and ``l_max`` the longest remaining length among deadline-``d_1``
  jobs — schedules every window-intersecting job as much as possible there,
  contracts the opened interval out of the timeline and recurses, is *exact*.
  We implement the contraction implicitly: the "opened set" ``O`` grows as a
  union of original-time intervals and all measure computations exclude it.

* **Theorem 7** (bounded ``g``): run the unbounded greedy, chop its busy
  period into interesting intervals, and within each interval pack the
  active jobs onto ``ceil(count / g)`` machines, at most one of which is
  non-full.  Busy time is at most ``OPT_inf + ℓ(J)/g <= 2 OPT``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.intervals import merge_intervals, span, subtract
from ..core.jobs import TIME_EPS, Instance
from ..core.validation import require_capacity

__all__ = [
    "PreemptivePiece",
    "PreemptiveSchedule",
    "greedy_unbounded_preemptive",
    "preemptive_bounded",
]


@dataclass(frozen=True)
class PreemptivePiece:
    """One contiguous piece of a job's processing."""

    job_id: int
    machine: int
    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start

    @property
    def interval(self) -> tuple[float, float]:
        return (self.start, self.end)


@dataclass(frozen=True)
class PreemptiveSchedule:
    """A preemptive busy-time solution as a set of pieces."""

    instance: Instance
    g: int
    pieces: tuple[PreemptivePiece, ...]

    @property
    def machines(self) -> list[int]:
        """Machine ids in use."""
        return sorted({p.machine for p in self.pieces})

    @property
    def total_busy_time(self) -> float:
        """Cumulative busy time over all machines."""
        return sum(
            span(p.interval for p in self.pieces if p.machine == m)
            for m in self.machines
        )

    def verify(self) -> None:
        """Check the preemptive model constraints (raises ``AssertionError``).

        * each job's pieces lie inside its window and total ``p_j``;
        * no two pieces of the same job overlap in time (single-processor
          jobs, even across machines);
        * at most ``g`` jobs run on a machine at any instant.
        """
        by_job: dict[int, list[PreemptivePiece]] = {}
        for p in self.pieces:
            if p.length <= TIME_EPS:
                raise AssertionError(f"degenerate piece for job {p.job_id}")
            by_job.setdefault(p.job_id, []).append(p)
        for job in self.instance.jobs:
            pieces = by_job.get(job.id, [])
            total = sum(p.length for p in pieces)
            if abs(total - job.length) > 1e-6:
                raise AssertionError(
                    f"job {job.id}: pieces total {total}, need {job.length}"
                )
            for p in pieces:
                if p.start < job.release - TIME_EPS or p.end > job.deadline + TIME_EPS:
                    raise AssertionError(
                        f"job {job.id}: piece [{p.start}, {p.end}) outside "
                        f"window [{job.release}, {job.deadline})"
                    )
            spans = sorted(p.interval for p in pieces)
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                if a2 < b1 - TIME_EPS:
                    raise AssertionError(
                        f"job {job.id}: two pieces overlap in time"
                    )
        for m in self.machines:
            events: list[tuple[float, int]] = []
            for p in self.pieces:
                if p.machine == m:
                    events.append((p.start, 1))
                    events.append((p.end, -1))
            events.sort(key=lambda e: (e[0], e[1]))
            depth = 0
            for _, delta in events:
                depth += delta
                if depth > self.g:
                    raise AssertionError(
                        f"machine {m} runs more than g={self.g} jobs at once"
                    )


# ----------------------------------------------------------------------
# Theorem 6: exact greedy for unbounded g
# ----------------------------------------------------------------------
def greedy_unbounded_preemptive(instance: Instance) -> PreemptiveSchedule:
    """Exact preemptive busy time for ``g = inf`` (Theorem 6).

    All pieces land on machine 0 (capacity is treated as unlimited by using
    ``g = n``); the optimal busy time is the measure of the opened set.
    """
    n = instance.n
    if n == 0:
        return PreemptiveSchedule(instance, 1, tuple())

    remaining = {j.id: j.length for j in instance.jobs}
    opened: list[tuple[float, float]] = []  # disjoint, kept merged
    pieces: list[PreemptivePiece] = []

    while any(rem > TIME_EPS for rem in remaining.values()):
        pending = [j for j in instance.jobs if remaining[j.id] > TIME_EPS]
        d1 = min(j.deadline for j in pending)
        front = [j for j in pending if abs(j.deadline - d1) <= TIME_EPS]
        l_max = max(remaining[j.id] for j in front)

        # W = the rightmost l_max units of unopened measure before d1.
        unopened = subtract((min(j.release for j in pending), d1), opened)
        w: list[tuple[float, float]] = []
        need = l_max
        for a, b in reversed(unopened):
            if need <= TIME_EPS:
                break
            take = min(need, b - a)
            w.append((b - take, b))
            need -= take
        if need > TIME_EPS:  # pragma: no cover - excluded by feasibility
            raise RuntimeError(
                "insufficient unopened measure before the earliest deadline"
            )
        w.sort()

        # schedule every pending job as much as possible inside W ∩ window
        for job in pending:
            rem = remaining[job.id]
            for a, b in w:
                if rem <= TIME_EPS:
                    break
                lo = max(a, job.release)
                hi = min(b, job.deadline)
                if hi - lo <= TIME_EPS:
                    continue
                take = min(rem, hi - lo)
                pieces.append(
                    PreemptivePiece(
                        job_id=job.id, machine=0, start=lo, end=lo + take
                    )
                )
                rem -= take
            remaining[job.id] = rem

        opened = merge_intervals(opened + w)

    return PreemptiveSchedule(instance=instance, g=n, pieces=tuple(pieces))


# ----------------------------------------------------------------------
# Theorem 7: 2-approximation for bounded g
# ----------------------------------------------------------------------
def preemptive_bounded(instance: Instance, g: int) -> PreemptiveSchedule:
    """Preemptive busy time with bounded ``g`` — at most twice optimal.

    Runs the Theorem-6 greedy, then redistributes: within each interesting
    interval of the unbounded solution the active jobs are packed onto
    machines greedily (group ``q`` of the interval goes to machine ``q``),
    so at most one machine per interval is non-full.
    """
    require_capacity(g)
    s_inf = greedy_unbounded_preemptive(instance)
    if not s_inf.pieces:
        return PreemptiveSchedule(instance, g, tuple())

    points = sorted(
        {p.start for p in s_inf.pieces} | {p.end for p in s_inf.pieces}
    )
    pieces: list[PreemptivePiece] = []
    for a, b in zip(points, points[1:]):
        if b - a <= TIME_EPS:
            continue
        active = sorted(
            {
                p.job_id
                for p in s_inf.pieces
                if p.start <= a + TIME_EPS and p.end >= b - TIME_EPS
            }
        )
        if not active:
            continue
        for q in range(0, len(active), g):
            for jid in active[q : q + g]:
                pieces.append(
                    PreemptivePiece(
                        job_id=jid, machine=q // g, start=a, end=b
                    )
                )

    # merge back-to-back pieces of the same job on the same machine so the
    # schedule object stays small
    merged: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for p in pieces:
        merged.setdefault((p.job_id, p.machine), []).append(p.interval)
    out: list[PreemptivePiece] = []
    for (jid, m), ivs in merged.items():
        for a, b in merge_intervals(ivs):
            out.append(PreemptivePiece(job_id=jid, machine=m, start=a, end=b))
    return PreemptiveSchedule(instance=instance, g=g, pieces=tuple(out))
