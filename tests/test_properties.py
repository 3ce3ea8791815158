"""Property-based tests (hypothesis) for core invariants.

Each property encodes a lemma or observation from the paper (or a structural
fact its algorithms rely on) and is checked on randomly generated instances.
LP/MILP-backed properties use reduced example counts to keep runtime sane.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import Instance, Job, merge_intervals, span, total_length

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def integral_jobs(draw, max_n=8, max_t=10, max_len=3):
    n = draw(st.integers(1, max_n))
    jobs = []
    for i in range(n):
        p = draw(st.integers(1, max_len))
        slack = draw(st.integers(0, 3))
        r = draw(st.integers(0, max_t - p - slack))
        jobs.append(Job(r, r + p + slack, p, id=i))
    return Instance(tuple(jobs))


@st.composite
def interval_jobs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    jobs = []
    for i in range(n):
        a = draw(st.floats(0, 15, allow_nan=False))
        ln = draw(st.floats(0.25, 4, allow_nan=False))
        jobs.append(Job(round(a, 3), round(a + ln, 3) , round(a + ln, 3) - round(a, 3), id=i))
    return Instance(tuple(jobs))


@st.composite
def raw_intervals(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    out = []
    for _ in range(n):
        a = draw(st.floats(-5, 20, allow_nan=False))
        ln = draw(st.floats(0.01, 6, allow_nan=False))
        out.append((a, a + ln))
    return out


# ----------------------------------------------------------------------
# Interval algebra laws
# ----------------------------------------------------------------------
class TestIntervalAlgebraProperties:
    @given(raw_intervals())
    @settings(max_examples=200, **COMMON)
    def test_span_at_most_mass(self, ivs):
        assert span(ivs) <= total_length(ivs) + 1e-6

    @given(raw_intervals())
    @settings(max_examples=200, **COMMON)
    def test_merge_idempotent(self, ivs):
        once = merge_intervals(ivs)
        twice = merge_intervals(once)
        assert once == twice

    @given(raw_intervals())
    @settings(max_examples=200, **COMMON)
    def test_merged_disjoint_and_sorted(self, ivs):
        merged = merge_intervals(ivs)
        for (a1, b1), (a2, b2) in zip(merged, merged[1:]):
            assert b1 < a2 + 1e-9
        assert merged == sorted(merged)

    @given(raw_intervals(), raw_intervals())
    @settings(max_examples=200, **COMMON)
    def test_span_subadditive(self, xs, ys):
        assert span(xs + ys) <= span(xs) + span(ys) + 1e-6

    @given(raw_intervals())
    @settings(max_examples=200, **COMMON)
    def test_coverage_mass_conservation(self, ivs):
        from repro.core import coverage_counts

        cov = coverage_counts(ivs)
        mass = sum((b - a) * c for (a, b), c in cov)
        assert mass == pytest.approx(total_length(ivs), abs=1e-5)


# ----------------------------------------------------------------------
# Feasibility-network properties
# ----------------------------------------------------------------------
class TestFeasibilityProperties:
    @given(integral_jobs(), st.integers(1, 3))
    @settings(max_examples=40, **COMMON)
    def test_adding_slots_preserves_feasibility(self, inst, g):
        from repro.flow import ActiveTimeFeasibility

        oracle = ActiveTimeFeasibility(inst, g)
        T = inst.horizon
        half = set(range(1, T + 1, 2))
        if oracle.is_feasible(half):
            assert oracle.is_feasible(set(range(1, T + 1)))

    @given(integral_jobs(), st.integers(1, 3))
    @settings(max_examples=40, **COMMON)
    def test_flow_value_bounded_by_mass_and_capacity(self, inst, g):
        from repro.flow import ActiveTimeFeasibility

        oracle = ActiveTimeFeasibility(inst, g)
        slots = set(range(1, inst.horizon + 1, 2))
        v = oracle.max_flow_value(slots)
        assert v <= int(inst.total_length)
        assert v <= g * len(slots)


# ----------------------------------------------------------------------
# Active-time algorithm properties (LP-backed; fewer examples)
# ----------------------------------------------------------------------
class TestActiveTimeProperties:
    @given(integral_jobs(max_n=6, max_t=8), st.integers(1, 3))
    @settings(max_examples=25, **COMMON)
    def test_rounding_within_2x_lp_and_feasible(self, inst, g):
        from repro.activetime import round_active_time

        try:
            sol = round_active_time(inst, g, strict=True)
        except RuntimeError:
            return  # instance infeasible at this g
        sol.schedule.verify()
        assert sol.cost <= 2 * sol.lp_objective + 1e-6
        assert sol.repair_slots == []

    @given(integral_jobs(max_n=6, max_t=8), st.integers(1, 3))
    @settings(max_examples=25, **COMMON)
    def test_minimal_feasible_within_3x_opt(self, inst, g):
        from repro.activetime import exact_active_time, minimal_feasible_schedule

        try:
            exact = exact_active_time(inst, g)
        except RuntimeError:
            return
        s = minimal_feasible_schedule(inst, g)
        s.verify()
        assert s.cost <= 3 * exact.cost

    @given(integral_jobs(max_n=6, max_t=8), st.integers(1, 3))
    @settings(max_examples=25, **COMMON)
    def test_lp_sandwich(self, inst, g):
        """mass/g <= LP <= IP."""
        from repro.activetime import exact_active_time, lower_bound_mass
        from repro.lp import solve_active_time_lp

        try:
            exact = exact_active_time(inst, g)
        except RuntimeError:
            return
        lp = solve_active_time_lp(inst, g)
        assert lp.objective <= exact.cost + 1e-6
        assert exact.cost >= lower_bound_mass(inst, g)


# ----------------------------------------------------------------------
# Busy-time algorithm properties
# ----------------------------------------------------------------------
class TestBusyTimeProperties:
    @given(interval_jobs(), st.integers(1, 4))
    @settings(max_examples=40, **COMMON)
    def test_all_algorithms_feasible_and_bounded(self, inst, g):
        from repro.busytime import (
            best_lower_bound,
            chain_peeling_two_approx,
            first_fit,
            greedy_tracking,
            kumar_rudra,
        )

        lb = best_lower_bound(inst, g)
        for fn, factor in (
            (first_fit, 4),
            (greedy_tracking, 3),
            (chain_peeling_two_approx, 2),
            (kumar_rudra, 2),
        ):
            s = fn(inst, g)
            s.verify()
            assert s.total_busy_time >= lb - 1e-6
            assert s.total_busy_time <= factor * lb + 1e-6

    @given(interval_jobs(max_n=8))
    @settings(max_examples=60, **COMMON)
    def test_chain_parity_classes_are_tracks(self, inst):
        from repro.busytime import extract_chain
        from oracles import is_track

        chain = extract_chain(list(inst.jobs))
        assert is_track(chain[0::2])
        assert is_track(chain[1::2])

    @given(interval_jobs(max_n=8))
    @settings(max_examples=60, **COMMON)
    def test_witness_set_invariants(self, inst):
        from oracles import proper_witness_set
        from repro.core import coverage_counts

        q = proper_witness_set(list(inst.jobs))
        assert span(j.window for j in q) == pytest.approx(
            span(j.window for j in inst.jobs), abs=1e-6
        )
        cov = coverage_counts([j.window for j in q])
        assert max((c for _, c in cov), default=0) <= 2

    @given(integral_jobs(max_n=5, max_t=8), st.integers(1, 3))
    @settings(max_examples=15, **COMMON)
    def test_flexible_pipeline_theorem5_bound(self, inst, g):
        from repro.busytime import (
            mass_lower_bound,
            opt_infinity,
            schedule_flexible,
        )

        s = schedule_flexible(inst, g, algorithm="greedy_tracking")
        s.verify()
        placement = opt_infinity(inst)
        assert (
            s.total_busy_time
            <= placement.busy_time + 2 * mass_lower_bound(inst, g) + 1e-6
        )

    @given(integral_jobs(max_n=6, max_t=8))
    @settings(max_examples=20, **COMMON)
    def test_preemptive_greedy_matches_lp(self, inst):
        from repro.busytime import greedy_unbounded_preemptive
        from test_busytime_preemptive import (
            preemptive_unbounded_opt_reference,
        )

        s = greedy_unbounded_preemptive(inst)
        s.verify()
        assert s.total_busy_time == pytest.approx(
            preemptive_unbounded_opt_reference(inst), abs=1e-6
        )
