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
adds, and augments in the residual graph.  Before augmenting, it sends each
unit of the jobs the probe displaced or added straight into an open slot of
the job's window that has room.  Each such unit is an augmenting path, so
augmenting still ends at a maximum flow and every answer is still exact;
it just has less left to find, often nothing.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

import numpy as np

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_integral
from .dinic import Dinic

__all__ = ["ActiveTimeFeasibility", "is_feasible_slot_set"]


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
        self.T = T = instance.horizon

        jobs = instance.jobs
        n = len(jobs)
        # node layout: 0 = source, 1..n = jobs, n+1..n+T = slots, n+T+1 = sink
        self._source = 0
        self._sink = n + T + 1
        # Integral (checked above), so rounding recovers the exact values.
        release = np.rint([job.release for job in jobs]).astype(np.int64)
        deadline = np.rint([job.deadline for job in jobs]).astype(np.int64)
        length = np.rint([job.length for job in jobs]).astype(np.int64)
        first, width = release + 1, deadline - release
        self.P = int(length.sum())

        # The edges, as one add_edge call each would order them (edge i
        # has handle 2i): every job's source edge followed by its unit
        # edges into the slots of its window, in slot order; then the slot
        # -> sink edges.  Unit u is job_of[u]'s edge into slot slot_of[u];
        # job k's units follow the offset[k] units of the jobs before it.
        m = int(width.sum())
        offset = np.cumsum(width) - width
        job_of = np.repeat(np.arange(n), width)
        slot_of = np.arange(m) + np.repeat(first - offset, width)
        job_at = np.arange(n) + offset
        unit_at = np.arange(m) + job_of + 1
        tails = np.zeros(n + m + T, dtype=np.int64)
        heads = np.full(n + m + T, self._sink, dtype=np.int64)
        caps = np.zeros(n + m + T, dtype=np.int64)
        heads[job_at] = 1 + np.arange(n)
        tails[unit_at], heads[unit_at], caps[unit_at] = 1 + job_of, n + slot_of, 1
        tails[n + m :] = n + 1 + np.arange(T)
        self._net = Dinic(n + T + 2)
        self._net.add_edges(tails, heads, caps)

        # Per job position k: its source edge, first slot, window width and
        # length; per slot, the positions of the jobs live in it.
        self._job_edge = (2 * job_at).tolist()
        self._slot_edge = [-1, *range(2 * (n + m), 2 * (n + m + T), 2)]
        self._first = first.tolist()
        self._width = width.tolist()
        self._length = length.tolist()
        self._live: list[list[int]] = [[] for _ in range(T + 1)]
        for k, t in zip(job_of.tolist(), slot_of.tolist()):
            self._live[t].append(k)
        self._pos = {job.id: k for k, job in enumerate(jobs)}

        # The kept maximum flow: its value, the slots whose sink edge is
        # open, the jobs whose source edge is open and their total length.
        # Every edge out of the source and into the sink starts closed, so
        # the first probe adds its jobs and pre-routes them like any other.
        self._value = 0
        self._open: set[int] = set()
        self._jobs: frozenset[int] = frozenset()
        self._all_jobs = frozenset(self._pos)
        self._supply = 0

    # ------------------------------------------------------------------
    def _paths(self, k: int) -> Iterator[tuple[int, int, int]]:
        """Job ``k``'s source -> job -> slot -> sink paths, in slot order."""
        edge, first, width = self._job_edge[k], self._first[k], self._width[k]
        return zip(
            itertools.repeat(edge, width),
            range(edge + 2, edge + 2 * width + 1, 2),
            self._slot_edge[first : first + width],
        )

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
        flow = net.flow
        opened = slots - self._open
        closed = self._open - slots
        added = wanted - self._jobs
        dropped = self._jobs - wanted
        # Positions of the jobs that lost flow to a closed slot or join
        # now, in a fixed order: their units are routed again below.
        unrouted: dict[int, None] = {}
        for t in closed:
            slot_edge = self._slot_edge[t]
            if flow(slot_edge):
                for k in self._live[t]:
                    job_edge = self._job_edge[k]
                    unit = job_edge + 2 * (t - self._first[k] + 1)
                    if flow(unit):
                        net.push((job_edge, unit, slot_edge), -1)
                        self._value -= 1
                        unrouted[k] = None
            net.set_capacity(slot_edge, 0)
        for jid in dropped:
            k = self._pos[jid]
            job_edge = self._job_edge[k]
            if flow(job_edge):
                for path in self._paths(k):
                    if flow(path[1]):
                        net.push(path, -1)
                        self._value -= 1
            net.set_capacity(job_edge, 0)
            self._supply -= self._length[k]
            unrouted.pop(k, None)
        for t in opened:
            net.set_capacity(self._slot_edge[t], self.g)
        for jid in added:
            k = self._pos[jid]
            net.set_capacity(self._job_edge[k], self._length[k])
            self._supply += self._length[k]
            unrouted[k] = None
        # Greedy pre-route: each missing unit goes straight into an open
        # slot of its job's window that has room.  Every such unit is an
        # augmenting path, so augment still ends at a maximum flow; it
        # only has less left to find.
        for k in unrouted:
            self._value += net.push_greedily(
                self._paths(k), self._length[k] - flow(self._job_edge[k])
            )
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
            j.id: [
                self._first[k] + i
                for i, (_, unit, _) in enumerate(self._paths(k))
                if flow(unit) > 0
            ]
            for k, j in enumerate(self.instance.jobs)
            if j.id in self._jobs
        }


def is_feasible_slot_set(
    instance: Instance, g: int, active_slots: Iterable[int]
) -> bool:
    """One-shot feasibility probe (builds the network, solves once)."""
    return ActiveTimeFeasibility(instance, g).is_feasible(active_slots)

