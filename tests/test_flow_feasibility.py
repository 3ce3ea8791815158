"""Unit tests for the Figure-2 feasibility network (repro.flow.feasibility)."""

import pytest

from repro.core import Instance
from repro.flow import ActiveTimeFeasibility, is_feasible_slot_set
from repro.instances import random_active_time_instance


class TestBasicProbes:
    def test_all_slots_feasible(self, tiny_instance):
        oracle = ActiveTimeFeasibility(tiny_instance, g=2)
        assert oracle.is_feasible(range(1, 7))

    def test_empty_slot_set_infeasible(self, tiny_instance):
        oracle = ActiveTimeFeasibility(tiny_instance, g=2)
        assert not oracle.is_feasible([])

    def test_exact_minimum_slots(self):
        # two unit jobs, same 1-slot window, g = 2: one slot suffices
        inst = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        oracle = ActiveTimeFeasibility(inst, g=2)
        assert oracle.is_feasible([1])
        oracle1 = ActiveTimeFeasibility(inst, g=1)
        assert not oracle1.is_feasible([1])

    def test_max_flow_value_partial(self, tiny_instance):
        oracle = ActiveTimeFeasibility(tiny_instance, g=2)
        # Only slot 1 open: at most 2 units schedulable (capacity g=2).
        assert oracle.max_flow_value([1]) == 2

    def test_slots_outside_horizon_ignored(self, tiny_instance):
        oracle = ActiveTimeFeasibility(tiny_instance, g=2)
        assert oracle.is_feasible(list(range(1, 7)) + [99, -3, 0])


class TestMonotonicity:
    def test_feasibility_monotone_in_slots(self, rng):
        for _ in range(15):
            inst = random_active_time_instance(6, 10, rng=rng)
            oracle = ActiveTimeFeasibility(inst, g=2)
            slots = set(range(1, 11))
            if not oracle.is_feasible(slots):
                continue
            # removing slots can only lose feasibility, never regain it
            lost = False
            for t in sorted(slots):
                slots.discard(t)
                feasible = oracle.is_feasible(slots)
                if lost:
                    assert not feasible or oracle.is_feasible(slots | {t})
                lost = lost or not feasible

    def test_feasibility_monotone_in_g(self, rng):
        for _ in range(10):
            inst = random_active_time_instance(6, 8, rng=rng)
            slots = range(1, 9)
            feas = [
                is_feasible_slot_set(inst, g, slots) for g in range(1, 5)
            ]
            # once feasible, stays feasible as g grows
            for a, b in zip(feas, feas[1:]):
                assert b or not a


class TestAssignment:
    def test_assignment_none_when_infeasible(self, tiny_instance):
        assert ActiveTimeFeasibility(tiny_instance, 2).assignment([1]) is None

    def test_assignment_structure(self, tiny_instance):
        assignment = ActiveTimeFeasibility(tiny_instance, 2).assignment(range(1, 7))
        assert assignment is not None
        for job in tiny_instance.jobs:
            slots = assignment[job.id]
            assert len(slots) == job.integral_length()
            assert len(set(slots)) == len(slots)
            for t in slots:
                assert job.is_live_in_slot(t)

    def test_assignment_respects_capacity(self, rng):
        for _ in range(10):
            inst = random_active_time_instance(8, 10, rng=rng)
            g = int(rng.integers(1, 4))
            assignment = ActiveTimeFeasibility(inst, g).assignment(range(1, 11))
            if assignment is None:
                continue
            loads = {}
            for slots in assignment.values():
                for t in slots:
                    loads[t] = loads.get(t, 0) + 1
            assert all(v <= g for v in loads.values())

    def test_oracle_reusable_across_probes(self, tiny_instance):
        oracle = ActiveTimeFeasibility(tiny_instance, g=2)
        full = oracle.max_flow_value(range(1, 7))
        _ = oracle.max_flow_value([2])
        assert oracle.max_flow_value(range(1, 7)) == full


class TestValidation:
    def test_rejects_non_integral(self):
        inst = Instance.from_intervals([(0.0, 1.5)])
        with pytest.raises(ValueError):
            ActiveTimeFeasibility(inst, 1)

    def test_rejects_bad_capacity(self, tiny_instance):
        with pytest.raises(ValueError):
            ActiveTimeFeasibility(tiny_instance, 0)

    def test_rejects_unknown_job_ids_without_losing_state(self, tiny_instance):
        oracle = ActiveTimeFeasibility(tiny_instance, 2)
        assert oracle.is_feasible(range(1, 7), jobs=[0])
        with pytest.raises(ValueError, match="unknown job ids"):
            oracle.is_feasible([1], jobs=[0, 99])
        assert oracle.max_flow_value([1], jobs=[0]) == 1
        assert oracle.is_feasible(range(1, 7))


def _capacity_threshold(inst):
    """Smallest g for which the instance is feasible with every slot open."""
    slots = range(1, inst.horizon + 1)
    return next(
        g for g in range(1, inst.n + 2) if is_feasible_slot_set(inst, g, slots)
    )


def _window_pressure(inst):
    """max over slot windows of ceil(mass of jobs confined to it / width)."""
    best = 1
    for a in range(inst.horizon):
        for b in range(a + 1, inst.horizon + 1):
            mass = sum(
                j.integral_length()
                for j in inst.jobs
                if a <= j.release and j.deadline <= b
            )
            best = max(best, -(-mass // (b - a)))
    return best


class TestCapacityThreshold:
    """The smallest capacity g at which the all-open slot set is feasible."""

    def test_single_rigid_job(self):
        assert _capacity_threshold(Instance.from_tuples([(0, 2, 2)])) == 1

    def test_stacked_rigid_jobs_need_the_stack_height(self):
        inst = Instance.from_tuples([(0, 2, 2)] * 5)
        assert _capacity_threshold(inst) == 5
        assert not is_feasible_slot_set(inst, 4, [1, 2])

    def test_unit_jobs_sharing_one_slot(self):
        inst = Instance.from_tuples([(0, 1, 1)] * 3)
        assert _capacity_threshold(inst) == 3

    def test_disjoint_rigid_jobs_need_one(self):
        inst = Instance.from_tuples([(0, 2, 2), (3, 5, 2)])
        assert _capacity_threshold(inst) == 1

    def test_empty_instance_needs_no_slots(self):
        assert is_feasible_slot_set(Instance(tuple()), 1, [])

    def test_at_least_window_pressure(self, rng):
        for _ in range(8):
            inst = random_active_time_instance(6, 8, rng=rng)
            assert _capacity_threshold(inst) >= _window_pressure(inst)

    def test_overloaded_window_is_infeasible(self, rng):
        for _ in range(8):
            inst = random_active_time_instance(7, 8, rng=rng)
            pressure = _window_pressure(inst)
            if pressure > 1:
                slots = range(1, inst.horizon + 1)
                assert not is_feasible_slot_set(inst, pressure - 1, slots)

    def test_threshold_matches_exact_solver(self, rng):
        from repro.activetime import exact_active_time

        for _ in range(5):
            inst = random_active_time_instance(6, 8, rng=rng)
            g = _capacity_threshold(inst)
            exact_active_time(inst, g).verify()
            if g > 1:
                with pytest.raises(RuntimeError):
                    exact_active_time(inst, g - 1)
