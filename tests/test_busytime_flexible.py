"""Tests for the flexible-job pipeline (Section 4.3, Theorems 5 and 10)."""

from dataclasses import replace

import pytest

from repro.busytime import (
    INTERVAL_ALGORITHMS,
    greedy_unbounded_preemptive,
    mass_lower_bound,
    opt_infinity,
    schedule_flexible,
)
from repro.core import Instance
from repro.instances import random_flexible_instance, random_interval_instance

from oracles import exact_busy_time_flexible


class TestPipeline:
    def test_verifies_all_algorithms(self, rng):
        inst = random_flexible_instance(8, 12, rng=rng)
        for name in INTERVAL_ALGORITHMS:
            s = schedule_flexible(inst, 2, algorithm=name)
            s.verify()

    def test_unknown_algorithm(self, rng):
        inst = random_flexible_instance(4, 8, rng=rng)
        with pytest.raises(ValueError, match="unknown interval algorithm"):
            schedule_flexible(inst, 2, algorithm="wishful")

    def test_starts_recorded(self, rng):
        inst = random_flexible_instance(6, 10, rng=rng)
        s = schedule_flexible(inst, 2)
        assert set(s.starts) == {j.id for j in inst.jobs}
        for j in inst.jobs:
            assert j.can_start_at(s.starts[j.id])

    def test_explicit_starts_respected(self, rng):
        inst = random_flexible_instance(6, 10, rng=rng)
        starts = {j.id: float(j.release) for j in inst.jobs}
        s = schedule_flexible(inst, 2, starts=starts)
        assert s.starts == starts

    def test_missing_start_names_the_job(self):
        inst = Instance.from_tuples([(0, 4, 2), (1, 5, 3)])
        with pytest.raises(KeyError, match="no start time supplied for job 1"):
            schedule_flexible(inst, 2, starts={0: 0})

    def test_empty(self):
        s = schedule_flexible(Instance(tuple()), 2)
        assert s.total_busy_time == 0.0

    @pytest.mark.parametrize("name", sorted(INTERVAL_ALGORITHMS))
    def test_interval_instance_passthrough(self, name, rng):
        """Interval jobs have one start each, so the packer sees the input
        itself: the same bundles, every job at its release, and a schedule
        that verifies against the input, whatever the job ids."""
        for _ in range(3):
            drawn = random_interval_instance(10, 16.0, rng=rng)
            ids = rng.choice(1000, size=drawn.n, replace=False)
            inst = Instance(
                tuple(replace(j, id=int(k)) for j, k in zip(drawn.jobs, ids))
            )
            g = int(rng.integers(1, 4))
            s = schedule_flexible(inst, g, algorithm=name)
            s.verify()
            assert s.instance is inst
            assert s.starts == {j.id: j.release for j in inst.jobs}
            assert [b.job_ids() for b in s.bundles] == [
                b.job_ids() for b in INTERVAL_ALGORITHMS[name](inst, g).bundles
            ]


class TestGuarantees:
    def test_greedy_tracking_3x_bound(self, rng):
        """Theorem 5: pipeline cost <= OPT_inf + 2 mass/g <= 3 OPT."""
        for _ in range(12):
            inst = random_flexible_instance(8, 12, rng=rng)
            g = int(rng.integers(1, 4))
            s = schedule_flexible(inst, g, algorithm="greedy_tracking")
            placement = opt_infinity(inst)
            bound = placement.busy_time + 2 * mass_lower_bound(inst, g)
            assert s.total_busy_time <= bound + 1e-6
            lower = max(placement.busy_time, mass_lower_bound(inst, g))
            assert s.total_busy_time <= 3 * lower + 1e-6

    def test_two_approx_algorithms_4x_bound(self, rng):
        """Theorem 10: the extended 2-approximations stay within 4 OPT."""
        for _ in range(10):
            inst = random_flexible_instance(7, 11, rng=rng)
            g = int(rng.integers(1, 4))
            placement = opt_infinity(inst)
            lower = max(placement.busy_time, mass_lower_bound(inst, g))
            for name in ("chain_peeling", "kumar_rudra"):
                s = schedule_flexible(inst, g, algorithm=name)
                assert s.total_busy_time <= 4 * lower + 1e-6

    def test_vs_exact_small(self, rng):
        for _ in range(5):
            inst = random_flexible_instance(5, 8, rng=rng)
            g = int(rng.integers(1, 3))
            opt = exact_busy_time_flexible(inst, g).total_busy_time
            s = schedule_flexible(inst, g, algorithm="greedy_tracking")
            assert s.total_busy_time <= 3 * opt + 1e-6

    def test_preemptive_lower_bounds_nonpreemptive(self, rng):
        for _ in range(8):
            inst = random_flexible_instance(6, 10, rng=rng)
            pre = greedy_unbounded_preemptive(inst).total_busy_time
            placement = opt_infinity(inst)
            assert pre <= placement.busy_time + 1e-6
