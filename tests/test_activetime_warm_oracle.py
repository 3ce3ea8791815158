"""The paper's algorithms decide the same with the warm feasibility oracle.

:class:`ActiveTimeFeasibility` answers each probe from the previous maximum
flow.  Every answer is exact, so Theorem 1's slot closing and Theorem 2's
rounding must make exactly the decisions they make against a cold reference
that builds a fresh oracle for every probe — and a rounding call needs only
one oracle for all of its probes.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.activetime import (
    close_slots_greedily,
    minimal_feasible_schedule,
    round_active_time,
)
from repro.core import Instance, Job
from repro.flow import ActiveTimeFeasibility
from repro.instances import random_active_time_instance, tight_window_instance

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


class ColdOracle:
    """Reference oracle: a freshly built network for every probe."""

    def __init__(self, instance: Instance, g: int):
        self.instance, self.g = instance, g

    def is_feasible(self, active_slots, *, jobs=None):
        fresh = ActiveTimeFeasibility(self.instance, self.g)
        return fresh.is_feasible(active_slots, jobs=jobs)

    def assignment(self, active_slots, *, jobs=None):
        fresh = ActiveTimeFeasibility(self.instance, self.g)
        return fresh.assignment(active_slots, jobs=jobs)


class TestSameDecisions:
    @given(integral_instances(), st.integers(1, 3))
    @settings(max_examples=60, **COMMON)
    def test_close_slots_greedily_matches_cold(self, inst, g):
        start = list(range(1, inst.horizon + 1))
        assume(ColdOracle(inst, g).is_feasible(start))

        def close(oracle):
            return close_slots_greedily(inst, g, start, oracle=oracle)

        assert close(ActiveTimeFeasibility(inst, g)) == close(
            ColdOracle(inst, g)
        )

    @staticmethod
    def assert_rounding_matches_cold(inst, g):
        """Round warm and cold; returns the per-block actions."""
        warm = round_active_time(inst, g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                "repro.activetime.rounding.ActiveTimeFeasibility", ColdOracle
            )
            cold = round_active_time(inst, g)
        actions = [it.action for it in warm.iterations]
        assert actions == [it.action for it in cold.iterations]
        assert warm.iterations == cold.iterations
        assert warm.schedule.active_slots == cold.schedule.active_slots
        assert warm.repair_slots == cold.repair_slots == []
        warm.schedule.verify()
        return actions

    @given(integral_instances(), st.integers(1, 3))
    @settings(max_examples=30, **COMMON)
    def test_rounding_matches_cold(self, inst, g):
        assume(ColdOracle(inst, g).is_feasible(range(1, inst.horizon + 1)))
        self.assert_rounding_matches_cold(inst, g)

    def test_rounding_matches_cold_when_slots_close_and_charge(self):
        """Generator families where barely-open slots carry and charge."""
        rng = np.random.default_rng(1)
        actions: set[str] = set()
        for _ in range(10):
            for inst in (
                tight_window_instance(12, 3, rng=rng),
                random_active_time_instance(30, 30, rng=rng),
            ):
                if ColdOracle(inst, 3).is_feasible(range(1, inst.horizon + 1)):
                    actions.update(self.assert_rounding_matches_cold(inst, 3))
        assert {"carry", "charged"} <= actions


class TestOneNetwork:
    @pytest.fixture
    def built(self, monkeypatch):
        """Every oracle constructed while the test runs."""
        oracles: list[ActiveTimeFeasibility] = []
        init = ActiveTimeFeasibility.__init__

        def counting_init(self, *args, **kwargs):
            oracles.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ActiveTimeFeasibility, "__init__", counting_init)
        return oracles

    def test_rounding_constructs_one_oracle(self, built):
        inst = random_active_time_instance(
            20, 24, rng=np.random.default_rng(5)
        )
        sol = round_active_time(inst, 4)
        assert len(sol.iterations) > 3
        assert len(built) == 1

    def test_minimal_constructs_one_oracle(self, built):
        inst = random_active_time_instance(
            20, 24, rng=np.random.default_rng(5)
        )
        minimal_feasible_schedule(inst, 4)
        assert len(built) == 1
