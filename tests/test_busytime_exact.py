"""Tests for the exact busy-time oracles."""

import pytest

from repro.busytime import exact_busy_time_interval
from repro.core import Instance
from repro.instances import random_interval_instance

from oracles import (
    brute_force_busy_time_interval,
    exact_busy_time_flexible,
    random_integral_interval_instance,
)


class TestIntervalExact:
    def test_verifies(self, interval_instance):
        s = exact_busy_time_interval(interval_instance, 2)
        s.verify()

    def test_monotone_in_g(self, rng):
        for _ in range(5):
            inst = random_interval_instance(6, 10.0, rng=rng)
            costs = [
                exact_busy_time_interval(inst, g).total_busy_time
                for g in (1, 2, 4)
            ]
            assert costs == sorted(costs, reverse=True)

    def test_g1_total_length_when_disjointable(self):
        inst = Instance.from_intervals([(0, 1), (1, 2), (2, 3)])
        s = exact_busy_time_interval(inst, 1)
        # optimal cost is the total length; machine count may vary among ties
        assert s.total_busy_time == pytest.approx(3.0)

    def test_empty(self):
        assert exact_busy_time_interval(Instance(tuple()), 1).total_busy_time == 0


class TestBruteForce:
    def test_matches_milp(self, rng):
        for _ in range(10):
            inst = random_interval_instance(
                int(rng.integers(2, 7)), 10.0, rng=rng
            )
            g = int(rng.integers(1, 4))
            bf = brute_force_busy_time_interval(inst, g)
            ex = exact_busy_time_interval(inst, g)
            assert bf.total_busy_time == pytest.approx(
                ex.total_busy_time, abs=1e-6
            )

    def test_guard(self, rng):
        inst = random_interval_instance(12, 20.0, rng=rng)
        with pytest.raises(ValueError, match="brute force"):
            brute_force_busy_time_interval(inst, 2)

    def test_empty(self):
        s = brute_force_busy_time_interval(Instance(tuple()), 1)
        assert s.total_busy_time == 0


class TestFlexibleExact:
    def test_verifies(self):
        inst = Instance.from_tuples([(0, 4, 2), (1, 5, 2), (0, 6, 1)])
        s = exact_busy_time_flexible(inst, 2)
        s.verify()

    def test_never_above_interval_exact(self, rng):
        """Flexibility can only help."""
        for _ in range(5):
            inst = random_integral_interval_instance(5, 8.0, rng=rng)
            g = int(rng.integers(1, 3))
            rigid = exact_busy_time_interval(inst, g).total_busy_time
            # widen every window by 2 slots
            from repro.core import Job

            widened = Instance(
                tuple(
                    Job(
                        max(0, j.release - 1),
                        j.deadline + 1,
                        j.length,
                        id=j.id,
                    )
                    for j in inst.jobs
                )
            )
            flex = exact_busy_time_flexible(widened, g).total_busy_time
            assert flex <= rigid + 1e-6

    def test_empty(self):
        assert exact_busy_time_flexible(Instance(tuple()), 1).total_busy_time == 0
