"""Unit tests for active-time schedules and verification."""

import pytest

from repro.activetime import (
    ActiveTimeSchedule,
    VerificationError,
    schedule_from_slots,
)
from repro.core import Instance, Job
from repro.instances import random_active_time_instance


class TestScheduleBasics:
    def test_cost_counts_active_slots(self, tiny_instance):
        s = schedule_from_slots(tiny_instance, 2, [2, 3, 4])
        assert s.cost == 3

    def test_from_slots_verifies(self, tiny_instance):
        s = schedule_from_slots(tiny_instance, 2, range(1, 7))
        s.verify()

    def test_from_slots_infeasible_raises(self, tiny_instance):
        with pytest.raises(ValueError, match="infeasible"):
            schedule_from_slots(tiny_instance, 2, [1])

    def test_slot_loads(self, tiny_instance):
        s = schedule_from_slots(tiny_instance, 2, [2, 3, 4])
        loads = s.slot_loads()
        assert sum(loads.values()) == int(tiny_instance.total_length)
        assert max(loads.values()) <= 2

    def test_full_and_non_full_partition(self, tiny_instance):
        s = schedule_from_slots(tiny_instance, 2, [2, 3, 4])
        assert sorted(s.full_slots() + s.non_full_slots()) == [2, 3, 4]

    def test_jobs_in_slot(self, tiny_instance):
        s = schedule_from_slots(tiny_instance, 2, [2, 3, 4])
        for t in s.active_slots:
            for jid in s.jobs_in_slot(t):
                assert t in s.assignment[jid]


class TestVerificationCatchesMutations:
    def _base(self, tiny_instance) -> ActiveTimeSchedule:
        return schedule_from_slots(tiny_instance, 2, range(1, 7))

    def test_missing_job(self, tiny_instance):
        s = self._base(tiny_instance)
        broken = ActiveTimeSchedule(
            tiny_instance,
            2,
            s.active_slots,
            {k: v for k, v in s.assignment.items() if k != 0},
        )
        with pytest.raises(VerificationError, match="without assignment"):
            broken.verify()

    def test_short_assignment(self, tiny_instance):
        s = self._base(tiny_instance)
        assignment = dict(s.assignment)
        assignment[1] = assignment[1][:-1]
        broken = ActiveTimeSchedule(tiny_instance, 2, s.active_slots, assignment)
        with pytest.raises(VerificationError, match="units"):
            broken.verify()

    def test_duplicate_slot_for_job(self, tiny_instance):
        s = self._base(tiny_instance)
        assignment = dict(s.assignment)
        assignment[1] = (assignment[1][0],) * len(assignment[1])
        broken = ActiveTimeSchedule(tiny_instance, 2, s.active_slots, assignment)
        with pytest.raises(VerificationError, match="twice"):
            broken.verify()

    def test_inactive_slot_use(self, tiny_instance):
        s = schedule_from_slots(tiny_instance, 2, range(1, 7))
        assignment = dict(s.assignment)
        slots = tuple(t for t in s.active_slots if t not in assignment[2])
        broken = ActiveTimeSchedule(tiny_instance, 2, slots[:2], assignment)
        with pytest.raises(VerificationError):
            broken.verify()

    def test_outside_window(self, tiny_instance):
        s = self._base(tiny_instance)
        assignment = dict(s.assignment)
        assignment[0] = (5, 6)  # job 0 window is [0, 4)
        broken = ActiveTimeSchedule(tiny_instance, 2, s.active_slots, assignment)
        with pytest.raises(VerificationError, match="window"):
            broken.verify()

    def test_capacity_violation(self):
        inst = Instance.from_tuples([(0, 2, 1), (0, 2, 1)])
        broken = ActiveTimeSchedule(inst, 1, (1,), {0: (1,), 1: (1,)})
        with pytest.raises(VerificationError, match="capacity"):
            broken.verify()

    def test_unsorted_slots(self, tiny_instance):
        s = self._base(tiny_instance)
        broken = ActiveTimeSchedule(
            tiny_instance, 2, tuple(reversed(s.active_slots)), dict(s.assignment)
        )
        with pytest.raises(VerificationError, match="sorted"):
            broken.verify()

    def test_unknown_job_id(self, tiny_instance):
        s = self._base(tiny_instance)
        assignment = {**s.assignment, 99: (1,)}
        broken = ActiveTimeSchedule(tiny_instance, 2, s.active_slots, assignment)
        with pytest.raises(KeyError, match="no job with id 99"):
            broken.verify()

    def test_duplicated_id_checks_the_first_job(self):
        # Instance() rejects duplicate ids, so build one past that check
        # to pin the lookup rule of Instance.job_by_id: the first job wins.
        inst = object.__new__(Instance)
        object.__setattr__(
            inst, "jobs", (Job(0, 4, 2, id=0), Job(0, 4, 1, id=0))
        )
        ActiveTimeSchedule(inst, 1, (1, 2), {0: (1, 2)}).verify()
        with pytest.raises(VerificationError, match="received 1 units, needs 2"):
            ActiveTimeSchedule(inst, 1, (1,), {0: (1,)}).verify()

    def test_is_valid_wrapper(self, tiny_instance):
        s = self._base(tiny_instance)
        assert s.is_valid()
        broken = ActiveTimeSchedule(tiny_instance, 2, (), {})
        assert not broken.is_valid()


class TestRandomizedRoundTrips:
    def test_extraction_always_verifies(self, rng):
        for _ in range(15):
            inst = random_active_time_instance(7, 9, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                s = schedule_from_slots(inst, g, range(1, 10))
            except ValueError:
                continue
            s.verify()
