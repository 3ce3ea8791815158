"""The feasibility network ``G_feas`` of Figure 2 and fast repeated probes.

Given an integral active-time instance, a capacity ``g`` and a set ``A`` of
active slots, the paper observes that a feasible (integral, slot-preemptive)
schedule exists if and only if the maximum ``s -> v`` flow on the network

    source --(p_j)--> job j --(1)--> slot t --(g or 0)--> sink

has value ``P = sum_j p_j``, where slot-to-sink edges carry capacity ``g``
exactly on active slots and ``0`` elsewhere.

Both approximation algorithms in Sections 2–3 call this probe many times,
and consecutive probes differ by a slot or a block of jobs: Theorem 1's
minimal-feasible closes one slot at a time, and Theorem 2's rounding checks
a growing prefix of jobs against a growing slot set.  So
:class:`ActiveTimeFeasibility` builds the network once, keeps its last
maximum flow, and answers each probe from that flow: it cancels the flow
through every slot or job the probe drops (every path is source -> job ->
slot -> sink, so that is one unit per job-slot edge), opens what the probe
adds, and augments in the residual graph.  Every answer is still exact.
"""

from __future__ import annotations

from typing import Iterable

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_integral
from .dinic import Dinic

__all__ = ["ActiveTimeFeasibility", "is_feasible_slot_set", "extract_assignment"]


class ActiveTimeFeasibility:
    """Reusable feasibility oracle for the active-time problem.

    Parameters
    ----------
    instance:
        Integral instance (releases, deadlines, lengths all integers).
    g:
        Machine capacity: at most ``g`` distinct jobs per active slot.

    Notes
    -----
    Slots are numbered ``1..T`` with ``T = max_j d_j`` (slot ``t`` is the unit
    ``[t-1, t)``).  Probes accept any iterable of slot numbers, and an
    optional iterable ``jobs`` of job ids that must fit (all jobs when
    omitted).  Each probe starts from the maximum flow of the previous one.
    """

    def __init__(self, instance: Instance, g: int):
        require_integral(instance, "feasibility network")
        require_capacity(g)
        self.instance = instance
        self.g = g
        self.T = instance.horizon
        self.P = int(round(instance.total_length))

        n = instance.n
        # node layout: 0 = source, 1..n = jobs, n+1..n+T = slots, n+T+1 = sink
        self._source = 0
        self._sink = n + self.T + 1
        net = Dinic(n + self.T + 2)

        self._job_edge: dict[int, int] = {}
        self._length: dict[int, int] = {}
        # per job id, the (slot, unit edge) pairs of its job->slot edges
        self._job_units: dict[int, list[tuple[int, int]]] = {}
        # per slot, the (job edge, unit edge) pairs of the jobs live in it
        self._slot_units: list[list[tuple[int, int]]] = [
            [] for _ in range(self.T + 1)
        ]
        self._slot_edge: list[int] = [-1] * (self.T + 1)  # 1-based by slot

        for pos, job in enumerate(instance.jobs):
            jn = 1 + pos
            length = job.integral_length()
            job_edge = net.add_edge(self._source, jn, length)
            self._job_edge[job.id] = job_edge
            self._length[job.id] = length
            units = self._job_units[job.id] = []
            for t in job.feasible_slots():
                unit = net.add_edge(jn, n + t, 1)
                units.append((t, unit))
                self._slot_units[t].append((job_edge, unit))
        for t in range(1, self.T + 1):
            self._slot_edge[t] = net.add_edge(n + t, self._sink, 0)

        self._net = net
        # The kept maximum flow: its value, the slots whose sink edge is
        # open, the jobs whose source edge is open and their total length.
        self._value = 0
        self._open: set[int] = set()
        self._jobs = frozenset(self._job_edge)
        self._all_jobs = self._jobs
        self._supply = self.P

    # ------------------------------------------------------------------
    def _update(
        self, active_slots: Iterable[int], jobs: Iterable[int] | None
    ) -> int:
        """Move the kept maximum flow to a new probe; returns its value."""
        # slots outside [1, T] can never host a job; ignore silently so
        # callers may pass padded candidate sets.
        slots = {t for t in active_slots if 1 <= t <= self.T}
        wanted = self._all_jobs if jobs is None else frozenset(jobs)
        if not wanted <= self._all_jobs:
            raise ValueError(
                f"unknown job ids {sorted(wanted - self._all_jobs)}"
            )
        net = self._net
        opened = slots - self._open
        closed = self._open - slots
        added = wanted - self._jobs
        dropped = self._jobs - wanted
        for t in closed:
            slot_edge = self._slot_edge[t]
            if net.flow(slot_edge):
                for job_edge, unit in self._slot_units[t]:
                    if net.flow(unit):
                        net.push((job_edge, unit, slot_edge), -1)
                        self._value -= 1
            net.set_capacity(slot_edge, 0)
        for jid in dropped:
            job_edge = self._job_edge[jid]
            if net.flow(job_edge):
                for t, unit in self._job_units[jid]:
                    if net.flow(unit):
                        net.push((job_edge, unit, self._slot_edge[t]), -1)
                        self._value -= 1
            net.set_capacity(job_edge, 0)
            self._supply -= self._length[jid]
        for t in opened:
            net.set_capacity(self._slot_edge[t], self.g)
        for jid in added:
            net.set_capacity(self._job_edge[jid], self._length[jid])
            self._supply += self._length[jid]
        self._open, self._jobs = slots, wanted
        changed = opened or closed or added or dropped
        if changed and self._value < self._supply:
            self._value += net.augment(
                self._source, self._sink, self._supply - self._value
            )
        return self._value

    def max_flow_value(
        self, active_slots: Iterable[int], *, jobs: Iterable[int] | None = None
    ) -> int:
        """Maximum schedulable mass of ``jobs`` using only the given slots."""
        return self._update(active_slots, jobs)

    def is_feasible(
        self, active_slots: Iterable[int], *, jobs: Iterable[int] | None = None
    ) -> bool:
        """True when all of ``jobs`` (default: every job) fit the slots."""
        return self._update(active_slots, jobs) == self._supply

    def assignment(
        self, active_slots: Iterable[int], *, jobs: Iterable[int] | None = None
    ) -> dict[int, list[int]] | None:
        """An integral assignment ``job id -> sorted list of slots``, if feasible.

        Covers ``jobs`` (default: every job) and returns ``None`` when the
        slot set cannot accommodate them.  Each job appears in exactly
        ``p_j`` slots, each slot hosts at most ``g`` jobs, and no job
        occupies a slot twice — the schedule properties of Section 2.
        """
        if self._update(active_slots, jobs) != self._supply:
            return None
        flow = self._net.flow
        return {
            j.id: [t for t, unit in self._job_units[j.id] if flow(unit) > 0]
            for j in self.instance.jobs
            if j.id in self._jobs
        }


def is_feasible_slot_set(
    instance: Instance, g: int, active_slots: Iterable[int]
) -> bool:
    """One-shot feasibility probe (builds the network, solves once)."""
    return ActiveTimeFeasibility(instance, g).is_feasible(active_slots)


def extract_assignment(
    instance: Instance, g: int, active_slots: Iterable[int]
) -> dict[int, list[int]] | None:
    """One-shot assignment extraction (``None`` when infeasible)."""
    return ActiveTimeFeasibility(instance, g).assignment(active_slots)
