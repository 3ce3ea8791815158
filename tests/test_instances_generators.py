"""Tests for the random instance generators."""

import numpy as np
import pytest

from repro.instances import (
    random_active_time_instance,
    random_clique_instance,
    random_flexible_instance,
    random_interval_instance,
    random_proper_instance,
    random_unit_instance,
    tight_window_instance,
)

from oracles import is_clique, is_laminar, is_proper, random_laminar_instance


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda r: random_active_time_instance(8, 12, rng=r),
            lambda r: random_unit_instance(8, 10, rng=r),
            lambda r: random_interval_instance(8, 15.0, rng=r),
            lambda r: random_flexible_instance(8, 12, rng=r),
            lambda r: random_proper_instance(8, 15.0, rng=r),
            lambda r: random_clique_instance(8, 15.0, rng=r),
        ],
    )
    def test_seed_reproducible(self, factory):
        a = factory(np.random.default_rng(5))
        b = factory(np.random.default_rng(5))
        assert a == b

    def test_int_seed_accepted(self):
        a = random_interval_instance(5, 10.0, rng=3)
        b = random_interval_instance(5, 10.0, rng=3)
        assert a == b


class TestShapes:
    def test_active_time_integral_and_within_horizon(self, rng):
        inst = random_active_time_instance(20, 15, rng=rng)
        assert inst.is_integral
        assert inst.n == 20
        assert inst.latest_deadline <= 15
        assert inst.earliest_release >= 0

    def test_unit_instance(self, rng):
        inst = random_unit_instance(60, 10, rng=rng)
        assert inst.all_unit
        assert inst.is_integral
        assert {j.window_length for j in inst.jobs} == {1, 2, 3, 4, 5}

    def test_interval_instance(self, rng):
        inst = random_interval_instance(15, 20.0, rng=rng)
        assert inst.all_interval

    def test_flexible_has_slack(self, rng):
        inst = random_flexible_instance(80, 20, rng=rng)
        slacks = {j.window_length - j.length for j in inst.jobs}
        assert slacks == {1, 2, 3, 4, 5, 6}

    def test_proper(self, rng):
        inst = random_proper_instance(12, 20.0, rng=rng)
        assert inst.all_interval
        assert is_proper(inst)

    def test_clique(self, rng):
        inst = random_clique_instance(12, 20.0, rng=rng)
        assert inst.all_interval
        assert is_clique(inst)

    def test_laminar(self, rng):
        inst = random_laminar_instance(3, 2, rng=rng)
        assert inst.all_interval
        assert is_laminar(inst)

    def test_tight_window(self, rng):
        inst = tight_window_instance(10, 3, rng=rng)
        assert inst.n == 10
        assert inst.all_unit
        for j in inst.jobs:
            assert j.window_length == 2
