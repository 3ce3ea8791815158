"""The active-time shortcuts are exact: no decision may change.

Theorem 1's slot closing rejects a close without a flow probe when some
job live in the slot has no spare slot left in its window, and the
feasibility oracle routes the units a probe displaces or adds straight
into open slots before it augments.  Both are exact, so every answer and
every slot set must be what the plain probes give.  The slot sets pinned
at the bottom were computed before either shortcut existed.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.activetime import (
    close_slots_greedily,
    minimal_feasible_schedule,
    round_active_time,
)
from repro.core import Instance, Job
from repro.flow import ActiveTimeFeasibility, Dinic
from repro.instances import SWEEP_GENERATORS

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def integral_instances(draw, max_n=8, max_t=12, max_len=3):
    jobs = []
    for i in range(draw(st.integers(1, max_n))):
        p = draw(st.integers(1, max_len))
        r = draw(st.integers(0, max_t - p))
        d = draw(st.integers(r + p, min(max_t, r + p + 4)))
        jobs.append(Job(r, d, p, id=i))
    return Instance(tuple(jobs))


class RecordingOracle(ActiveTimeFeasibility):
    """The warm oracle, keeping the slot set of every probe it answered."""

    def __init__(self, instance: Instance, g: int):
        super().__init__(instance, g)
        self.probes: list[frozenset[int]] = []

    def is_feasible(self, active_slots, *, jobs=None):
        slots = frozenset(active_slots)
        self.probes.append(slots)
        return super().is_feasible(slots, jobs=jobs)


def fresh_is_feasible(instance: Instance, g: int, slots) -> bool:
    return ActiveTimeFeasibility(instance, g).is_feasible(slots)


class TestDoomedCloseSkip:
    @given(integral_instances(), st.integers(1, 3))
    @settings(max_examples=80, **COMMON)
    def test_every_skipped_close_is_infeasible(self, inst, g):
        """Replay the left-to-right closes: each close that was not
        probed must be infeasible on a fresh oracle, and each probed one
        is answered as a fresh oracle answers it."""
        start = list(range(1, inst.horizon + 1))
        assume(fresh_is_feasible(inst, g, start))
        oracle = RecordingOracle(inst, g)
        result = close_slots_greedily(inst, g, start, oracle=oracle)

        assert oracle.probes[0] == frozenset(start)
        pending = oracle.probes[1:]
        active = set(start)
        for t in start:
            trial = frozenset(active - {t})
            feasible = fresh_is_feasible(inst, g, trial)
            if pending and pending[0] == trial:
                pending.pop(0)
            else:
                assert not feasible, f"skipped a feasible close of slot {t}"
            if feasible:
                active = set(trial)
        assert pending == []
        assert result == sorted(active)

    def test_a_rigid_job_pins_its_slots_without_probes(self):
        """A job whose window equals its length has no slack, so no slot
        of its window is ever probed for closing."""
        inst = Instance.from_tuples([(0, 3, 3), (0, 6, 1)])
        oracle = RecordingOracle(inst, 2)
        result = close_slots_greedily(inst, 2, range(1, 7), oracle=oracle)
        assert result == [1, 2, 3]
        assert oracle.probes == [
            frozenset({1, 2, 3, 4, 5, 6}),  # the starting set
            frozenset({1, 2, 3, 5, 6}),
            frozenset({1, 2, 3, 6}),
            frozenset({1, 2, 3}),
        ]


def cold_max_flow(instance: Instance, g: int, slots, jobs) -> int:
    """Figure 2's network built one edge at a time and solved from zero."""
    n, T = instance.n, instance.horizon
    net = Dinic(n + T + 2)
    for k, job in enumerate(instance.jobs):
        net.add_edge(0, 1 + k, job.integral_length() if job.id in jobs else 0)
        for t in job.feasible_slots():
            net.add_edge(1 + k, n + t, 1)
    for t in range(1, T + 1):
        net.add_edge(n + t, n + T + 1, g if t in slots else 0)
    return net.max_flow(0, n + T + 1).value


class TestGreedyPreRoute:
    @given(
        integral_instances(max_n=10, max_t=14),
        st.integers(1, 3),
        st.data(),
    )
    @settings(max_examples=60, **COMMON)
    def test_warm_answers_match_a_cold_max_flow(self, inst, g, data):
        """Random probe sequences over slot sets and job subsets, each
        answered warm and by a cold solve of a freshly built network."""
        slots = list(range(1, inst.horizon + 1))
        ids = [j.id for j in inst.jobs]
        oracle = ActiveTimeFeasibility(inst, g)
        for _ in range(data.draw(st.integers(1, 12))):
            probe = data.draw(st.sets(st.sampled_from(slots)))
            jobs = data.draw(st.none() | st.sets(st.sampled_from(ids)))
            wanted = set(ids) if jobs is None else jobs
            warm = oracle.max_flow_value(probe, jobs=jobs)
            assert warm == cold_max_flow(inst, g, probe, wanted)

    def test_units_with_room_elsewhere_need_no_augment(self, monkeypatch):
        calls = []
        augment = Dinic.augment

        def counting(net, *args, **kwargs):
            calls.append(args)
            return augment(net, *args, **kwargs)

        monkeypatch.setattr(Dinic, "augment", counting)
        inst = Instance.from_tuples([(0, 3, 1), (0, 3, 1)])
        oracle = ActiveTimeFeasibility(inst, 2)
        # The first probe adds both jobs, and each close displaces both
        # units: the pre-route sends them on to the next open slot.
        assert oracle.is_feasible({1, 2, 3})
        assert oracle.is_feasible({2, 3})
        assert oracle.is_feasible({3})
        assert calls == []
        assert not oracle.is_feasible(set())  # only augment can prove this
        assert len(calls) == 1


def slot_runs(spec: str) -> list[int]:
    """``"1-3 7"`` -> ``[1, 2, 3, 7]``."""
    slots: list[int] = []
    for part in spec.split():
        lo, _, hi = part.partition("-")
        slots.extend(range(int(lo), int(hi or lo) + 1))
    return slots


#: (generator, g, seed) -> (minimal, rounding) slot sets, computed with
#: the plain probes before the shortcuts landed.
PINNED = {
    ("active", 12, 77): (
        "1-15 17-22 24-42 44-47 49-51 53-58 60-110 112-120",
        "1-15 17-22 24-42 44-47 49-51 53-58 60-113 115-120",
    ),
    ("active", 16, 77): (
        "1-15 17-22 24-42 44-47 49-51 53-58 60-110 112-120",
        "1-15 17-22 24-42 44-47 49-51 53-58 60-113 115-120",
    ),
    ("tight", 12, 77): (
        "2 4 6 8 10 12 14 16-18 20 22 24 26 28 30 32 34 36 38 40 42 44 46 "
        "48-50 52 54 56 58 60 62-64 66 68 70 72 74 76 78",
    ) * 2,
    ("tight", 16, 77): (
        "2 4 6 8 10 12 14 16-18 20 22 24 26 28 30 32 34 36 38 40 42 44 46 "
        "48-50 52 54 56 58 60",
    ) * 2,
    ("active", 12, 78): (
        "4-7 9-20 23-29 31-36 38-48 50-53 55-81 83-101 103-112 114-117 120",
        "4-7 9-20 22-25 27-29 31-36 38-48 50-53 55-81 83-101 103-112 114-117 "
        "119",
    ),
    ("active", 16, 78): (
        "4-7 9-20 23-29 31-36 38-48 50-53 55-81 83-101 103-112 114-117 120",
        "4-7 9-20 22-25 27-30 32-36 38-48 50-53 55-81 83-101 103-112 114-117 "
        "119",
    ),
    ("tight", 12, 78): (
        "2 4 6 8 10 12 14 16 18 20 22 24 26 28 30 32 34 36 38 40 42 44 46 48 "
        "50 52 54 56 58 60 62 64 66-68 70 72 74 76 78-80 82 84 86",
    ) * 2,
    ("tight", 16, 78): (
        "2 4 6 8 10 12 14 16 18 20 22 24 26 28 30 32 34 36 38 40 42 44 46 48 "
        "50 52 54 56 58 60 62 64",
    ) * 2,
}


@pytest.mark.parametrize("gen, g, seed", sorted(PINNED))
def test_benchmark_shaped_decisions_are_pinned(gen, g, seed):
    inst = SWEEP_GENERATORS[gen](300, 120, g, seed)
    minimal, rounding = PINNED[gen, g, seed]
    assert list(minimal_feasible_schedule(inst, g).active_slots) == slot_runs(
        minimal
    )
    sol = round_active_time(inst, g)
    assert list(sol.schedule.active_slots) == slot_runs(rounding)
    assert sol.repair_slots == [] and sol.charging_failures == []
