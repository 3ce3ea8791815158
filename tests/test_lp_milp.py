"""Unit tests for the exact MILP oracles (repro.lp.milp)."""

import pytest

from repro.core import Instance
from repro.flow import is_feasible_slot_set
from repro.instances import figure3, lp_gap, random_active_time_instance
from repro.lp import (
    solve_active_time_exact,
    solve_busy_time_interval_exact,
    solve_unbounded_span_exact,
)

from oracles import (
    random_integral_interval_instance,
    solve_busy_time_flexible_exact,
)


class TestActiveTimeExact:
    def test_tiny_known_value(self, tiny_instance):
        res = solve_active_time_exact(tiny_instance, 2)
        assert res.objective == 3.0
        assert len(res.witness["active_slots"]) == 3

    def test_witness_is_feasible(self, rng):
        for _ in range(8):
            inst = random_active_time_instance(6, 8, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                res = solve_active_time_exact(inst, g)
            except RuntimeError:
                continue
            assert is_feasible_slot_set(inst, g, res.witness["active_slots"])

    def test_figure3_closed_form(self):
        for g in (3, 4, 5):
            gad = figure3(g)
            res = solve_active_time_exact(gad.instance, g)
            assert res.objective == gad.facts["opt_active_time"]

    def test_lp_gap_closed_form(self):
        for g in (2, 3, 4):
            gad = lp_gap(g)
            res = solve_active_time_exact(gad.instance, g)
            assert res.objective == gad.facts["ip_opt"]

    def test_empty(self):
        res = solve_active_time_exact(Instance(tuple()), 1)
        assert res.objective == 0.0

    def test_infeasible_raises(self):
        inst = Instance.from_tuples([(0, 1, 1), (0, 1, 1), (0, 1, 1)])
        with pytest.raises(RuntimeError):
            solve_active_time_exact(inst, 2)

    def test_float_conversion(self, tiny_instance):
        res = solve_active_time_exact(tiny_instance, 2)
        assert float(res) == 3.0


class TestBusyTimeIntervalExact:
    def test_disjoint_jobs_share_machine(self):
        inst = Instance.from_intervals([(0, 1), (2, 3), (4, 5)])
        res = solve_busy_time_interval_exact(inst, 1)
        assert res.objective == pytest.approx(3.0)

    def test_identical_jobs_capacity_split(self):
        inst = Instance.from_intervals([(0, 1)] * 4)
        res = solve_busy_time_interval_exact(inst, 2)
        assert res.objective == pytest.approx(2.0)
        assert len(res.witness["bundles"]) == 2

    def test_bundles_partition_jobs(self, interval_instance):
        res = solve_busy_time_interval_exact(interval_instance, 2)
        ids = sorted(j for b in res.witness["bundles"] for j in b)
        assert ids == sorted(j.id for j in interval_instance.jobs)

    def test_rejects_flexible(self, tiny_instance):
        with pytest.raises(ValueError):
            solve_busy_time_interval_exact(tiny_instance, 2)

    def test_real_valued_lengths(self):
        inst = Instance.from_intervals([(0.0, 1.3), (0.9, 2.1)])
        res = solve_busy_time_interval_exact(inst, 2)
        assert res.objective == pytest.approx(2.1)

    def test_empty(self):
        assert solve_busy_time_interval_exact(Instance(tuple()), 1).objective == 0


class TestUnboundedSpanExact:
    def test_interval_jobs_span(self):
        inst = Instance.from_tuples([(0, 2, 2), (3, 5, 2)])
        res = solve_unbounded_span_exact(inst)
        assert res.objective == pytest.approx(4.0)

    def test_flexible_jobs_consolidate(self):
        # two flexible unit jobs with overlapping windows share one slot
        inst = Instance.from_tuples([(0, 3, 1), (0, 3, 1)])
        res = solve_unbounded_span_exact(inst)
        assert res.objective == pytest.approx(1.0)

    def test_starts_within_windows(self, rng):
        from repro.instances import random_flexible_instance

        for _ in range(6):
            inst = random_flexible_instance(5, 8, rng=rng)
            res = solve_unbounded_span_exact(inst)
            for jid, s in res.witness["starts"].items():
                job = inst.job_by_id(int(jid))
                assert job.can_start_at(s)

    def test_value_is_span_of_placement(self, rng):
        from repro.busytime import pin_instance
        from repro.core import span
        from repro.instances import random_flexible_instance

        for _ in range(6):
            inst = random_flexible_instance(5, 8, rng=rng)
            res = solve_unbounded_span_exact(inst)
            pinned = pin_instance(inst, res.witness["starts"])
            assert span(j.window for j in pinned.jobs) == pytest.approx(
                res.objective, abs=1e-6
            )

    def test_empty(self):
        assert solve_unbounded_span_exact(Instance(tuple())).objective == 0


class TestBusyTimeFlexibleExact:
    def test_matches_interval_exact_on_interval_instance(self, rng):
        for _ in range(4):
            inst = random_integral_interval_instance(4, 8.0, rng=rng)
            g = int(rng.integers(1, 3))
            a = solve_busy_time_interval_exact(inst, g)
            b = solve_busy_time_flexible_exact(inst, g)
            assert a.objective == pytest.approx(b.objective, abs=1e-6)

    def test_flexibility_helps(self):
        # two unit jobs, wide windows: flexible can align them, g=2
        inst = Instance.from_tuples([(0, 4, 2), (1, 5, 2)])
        res = solve_busy_time_flexible_exact(inst, 2)
        assert res.objective == pytest.approx(2.0)

    def test_capacity_forces_split_or_stretch(self):
        inst = Instance.from_tuples([(0, 2, 2), (0, 2, 2), (0, 2, 2)])
        res = solve_busy_time_flexible_exact(inst, 2)
        # three rigid-ish jobs, capacity 2: two machines over [0,2)
        assert res.objective == pytest.approx(4.0)

    def test_witness_consistency(self):
        inst = Instance.from_tuples([(0, 4, 2), (1, 5, 2)])
        res = solve_busy_time_flexible_exact(inst, 2)
        assert set(res.witness["starts"]) == {0, 1}
        assert set(res.witness["machines"]) == {0, 1}
