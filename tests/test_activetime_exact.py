"""Tests for the exact active-time oracles (MILP + brute force)."""

import pytest

from repro.activetime import exact_active_time, lower_bound_mass
from repro.core import Instance
from repro.instances import random_active_time_instance

from oracles import brute_force_active_time


class TestExactMilp:
    def test_verifies(self, tiny_instance):
        s = exact_active_time(tiny_instance, 2)
        s.verify()
        assert s.cost == 3

    def test_empty(self):
        assert exact_active_time(Instance(tuple()), 1).cost == 0

    def test_g_one_equals_total_length(self):
        inst = Instance.from_tuples([(0, 10, 3), (0, 10, 2)])
        assert exact_active_time(inst, 1).cost == 5

    def test_large_g_packs_tightly(self):
        inst = Instance.from_tuples([(0, 3, 2)] * 5)
        assert exact_active_time(inst, 5).cost == 2

    def test_monotone_in_g(self, rng):
        for _ in range(6):
            inst = random_active_time_instance(6, 8, rng=rng)
            costs = []
            for g in (1, 2, 4):
                try:
                    costs.append(exact_active_time(inst, g).cost)
                except RuntimeError:
                    costs.append(None)
            known = [c for c in costs if c is not None]
            assert known == sorted(known, reverse=True)


class TestBruteForceCrossCheck:
    def test_matches_milp(self, rng):
        matched = 0
        for _ in range(12):
            inst = random_active_time_instance(4, 6, max_length=2, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                milp = exact_active_time(inst, g)
            except RuntimeError:
                continue
            bf = brute_force_active_time(inst, g)
            assert bf.cost == milp.cost
            matched += 1
        assert matched >= 5

    def test_horizon_guard(self):
        inst = Instance.from_tuples([(0, 30, 1)])
        with pytest.raises(ValueError, match="horizon"):
            brute_force_active_time(inst, 1, max_horizon=16)

    def test_empty(self):
        assert brute_force_active_time(Instance(tuple()), 1).cost == 0

    def test_infeasible_raises(self):
        inst = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        with pytest.raises(ValueError):
            brute_force_active_time(inst, 1)


class TestMassLowerBound:
    def test_value(self, tiny_instance):
        assert lower_bound_mass(tiny_instance, 2) == 3
        assert lower_bound_mass(tiny_instance, 4) == 2

    def test_empty(self):
        assert lower_bound_mass(Instance(tuple()), 3) == 0

    def test_bound_respected_by_exact(self, rng):
        for _ in range(8):
            inst = random_active_time_instance(5, 8, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                exact = exact_active_time(inst, g)
            except RuntimeError:
                continue
            assert exact.cost >= lower_bound_mass(inst, g)
