"""Determinism: every algorithm yields identical output across repeat runs.

Reproducibility is a stated property of the library (seeded generators,
deterministic tie-breaking); these tests pin it down so an accidental
set-iteration or dict-ordering dependency cannot creep in silently.
"""

import pytest

from repro.activetime import (
    exact_active_time,
    minimal_feasible_schedule,
    round_active_time,
)
from repro.busytime import (
    chain_peeling_two_approx,
    first_fit,
    greedy_tracking,
    greedy_unbounded_preemptive,
    kumar_rudra,
    preemptive_bounded,
    schedule_flexible,
)
from repro.instances import random_active_time_instance, random_interval_instance


def bundle_signature(schedule):
    return sorted(tuple(b.job_ids()) for b in schedule.bundles)


class TestBusyTimeDeterminism:
    @pytest.mark.parametrize(
        "algo",
        [first_fit, greedy_tracking, chain_peeling_two_approx, kumar_rudra],
        ids=lambda f: f.__name__,
    )
    def test_repeat_runs_identical(self, algo, rng):
        inst = random_interval_instance(15, 24.0, rng=rng)
        a = algo(inst, 3)
        b = algo(inst, 3)
        assert bundle_signature(a) == bundle_signature(b)
        assert a.total_busy_time == b.total_busy_time

    def test_flexible_pipeline_deterministic(self, rng):
        from repro.instances import random_flexible_instance

        inst = random_flexible_instance(10, 15, rng=rng)
        a = schedule_flexible(inst, 2)
        b = schedule_flexible(inst, 2)
        assert a.starts == b.starts
        assert bundle_signature(a) == bundle_signature(b)

    def test_preemptive_deterministic(self, rng):
        from repro.instances import random_flexible_instance

        inst = random_flexible_instance(10, 15, rng=rng)
        a = greedy_unbounded_preemptive(inst)
        b = greedy_unbounded_preemptive(inst)
        assert a.pieces == b.pieces
        c = preemptive_bounded(inst, 2)
        d = preemptive_bounded(inst, 2)
        assert sorted(map(repr, c.pieces)) == sorted(map(repr, d.pieces))


def feasible_active_instance(rng, n=10, t=12, g=2):
    """Draw until a g-feasible instance appears (bounded retries)."""
    from repro.flow import is_feasible_slot_set

    for _ in range(20):
        inst = random_active_time_instance(n, t, rng=rng)
        if is_feasible_slot_set(inst, g, range(1, t + 1)):
            return inst
    raise AssertionError("no feasible draw in 20 tries")


class TestActiveTimeDeterminism:
    def test_minimal_feasible_fixed_order(self, rng):
        inst = feasible_active_instance(rng)
        a = minimal_feasible_schedule(inst, 2)
        b = minimal_feasible_schedule(inst, 2)
        assert a.active_slots == b.active_slots

    def test_rounding_deterministic(self, rng):
        inst = feasible_active_instance(rng)
        a = round_active_time(inst, 2)
        b = round_active_time(inst, 2)
        assert a.schedule.active_slots == b.schedule.active_slots
        assert [it.action for it in a.iterations] == [
            it.action for it in b.iterations
        ]

    def test_exact_value_stable(self, rng):
        inst = feasible_active_instance(rng, n=8, t=10)
        a = exact_active_time(inst, 2)
        b = exact_active_time(inst, 2)
        assert a.cost == b.cost
