"""Tests for lower bounds (Obs. 2–4) and the demand profile (Defs. 11–13)."""

import itertools

import pytest

from repro.busytime import (
    best_lower_bound,
    compute_demand_profile,
    demand_profile_lower_bound,
    exact_busy_time_interval,
    mass_lower_bound,
    pad_to_multiple_of_g,
    span_lower_bound,
)
from repro.busytime.demand_profile import DUMMY_LABEL
from repro.core import Instance
from repro.instances import random_interval_instance

from oracles import raw_demand_at


class TestMassBound:
    def test_value(self, interval_instance):
        assert mass_lower_bound(interval_instance, 2) == pytest.approx(
            interval_instance.total_length / 2
        )

    def test_paper_example_disjoint_units(self):
        """g disjoint unit jobs: mass bound is 1, OPT pays g (Section 4.1)."""
        g = 4
        inst = Instance.from_intervals([(2 * i, 2 * i + 1) for i in range(g)])
        assert mass_lower_bound(inst, g) == pytest.approx(1.0)
        assert exact_busy_time_interval(inst, g).total_busy_time == pytest.approx(
            float(g)
        )


class TestSpanBound:
    def test_value(self, interval_instance):
        assert span_lower_bound(interval_instance) == pytest.approx(5.0)

    def test_paper_example_identical_units(self):
        """g^2 identical unit jobs: span bound 1, OPT pays g (Section 4.1)."""
        g = 3
        inst = Instance.from_intervals([(0, 1)] * (g * g))
        assert span_lower_bound(inst) == pytest.approx(1.0)
        assert exact_busy_time_interval(inst, g).total_busy_time == pytest.approx(
            float(g)
        )

    def test_rejects_flexible(self, tiny_instance):
        with pytest.raises(ValueError):
            span_lower_bound(tiny_instance)


class TestDemandProfile:
    def test_segments_and_raw(self, interval_instance):
        profile = compute_demand_profile(interval_instance, 2)
        for (a, b), raw in zip(profile.segments, profile.raw):
            mid = (a + b) / 2
            assert raw_demand_at(interval_instance, mid) == raw

    def test_cost_formula(self):
        inst = Instance.from_intervals([(0, 2), (0, 2), (0, 2), (1, 3)])
        profile = compute_demand_profile(inst, 2)
        # [0,1): 3 jobs -> 2 machines; [1,2): 4 -> 2; [2,3): 1 -> 1
        assert profile.cost == pytest.approx(2 + 2 + 1)

    def test_demands_and_max(self, interval_instance):
        profile = compute_demand_profile(interval_instance, 2)
        assert profile.max_demand == max(profile.demands)

    def test_span_property(self, interval_instance):
        profile = compute_demand_profile(interval_instance, 2)
        assert profile.span == pytest.approx(span_lower_bound(interval_instance))

    def test_level_regions_telescope(self, rng):
        """sum_k Sp({D >= k}) equals the profile cost."""
        for _ in range(10):
            inst = random_interval_instance(8, 15.0, rng=rng)
            g = int(rng.integers(1, 4))
            profile = compute_demand_profile(inst, g)
            total = sum(
                b - a
                for k in range(1, profile.max_demand + 1)
                for i, (a, b) in enumerate(profile.segments)
                if profile.demand(i) >= k
            )
            assert total == pytest.approx(profile.cost)


class TestBoundDominance:
    def test_profile_dominates_mass_and_span(self, rng):
        for _ in range(15):
            inst = random_interval_instance(8, 15.0, rng=rng)
            g = int(rng.integers(1, 4))
            profile = demand_profile_lower_bound(inst, g)
            assert profile >= mass_lower_bound(inst, g) - 1e-9
            assert profile >= span_lower_bound(inst) - 1e-9
            assert best_lower_bound(inst, g) == pytest.approx(profile)

    def test_opt_respects_all_bounds(self, rng):
        for _ in range(8):
            inst = random_interval_instance(6, 12.0, rng=rng)
            g = int(rng.integers(1, 4))
            opt = exact_busy_time_interval(inst, g).total_busy_time
            assert opt >= best_lower_bound(inst, g) - 1e-6

    def test_empty_instance(self):
        assert best_lower_bound(Instance(tuple()), 3) == 0.0


class TestPeakDemand:
    """The peak raw demand is the largest set of pairwise-overlapping jobs."""

    def test_equals_largest_pairwise_overlapping_set(self, rng):
        for _ in range(10):
            inst = random_interval_instance(8, 12.0, rng=rng)
            jobs = inst.jobs
            largest = max(
                r
                for r in range(1, len(jobs) + 1)
                for combo in itertools.combinations(jobs, r)
                if all(
                    a.release < b.deadline and b.release < a.deadline
                    for a, b in itertools.combinations(combo, 2)
                )
            )
            assert max(compute_demand_profile(inst, 1).raw) == largest

    def test_touching_jobs_do_not_stack(self):
        inst = Instance.from_intervals([(0, 1), (1, 2), (2, 3)])
        assert max(compute_demand_profile(inst, 2).raw) == 1

    def test_clique_instance_peaks_at_n(self, clique_instance):
        profile = compute_demand_profile(clique_instance, 2)
        assert max(profile.raw) == clique_instance.n


class TestPadding:
    def test_padded_demand_multiple_of_g(self, rng):
        for _ in range(10):
            inst = random_interval_instance(7, 12.0, rng=rng)
            g = int(rng.integers(1, 5))
            padded, dummy_ids = pad_to_multiple_of_g(inst, g)
            profile = compute_demand_profile(padded, g)
            for raw in profile.raw:
                assert raw % g == 0

    def test_profile_cost_unchanged(self, rng):
        for _ in range(10):
            inst = random_interval_instance(7, 12.0, rng=rng)
            g = int(rng.integers(1, 5))
            padded, _ = pad_to_multiple_of_g(inst, g)
            assert compute_demand_profile(padded, g).cost == pytest.approx(
                compute_demand_profile(inst, g).cost
            )

    def test_dummies_labelled(self, interval_instance):
        padded, dummy_ids = pad_to_multiple_of_g(interval_instance, 3)
        for jid in dummy_ids:
            assert padded.job_by_id(jid).label == DUMMY_LABEL

    def test_no_padding_when_already_multiple(self):
        g = 2
        inst = Instance.from_intervals([(0, 1), (0, 1)])
        padded, dummy_ids = pad_to_multiple_of_g(inst, g)
        assert dummy_ids == []
        assert padded.n == inst.n
