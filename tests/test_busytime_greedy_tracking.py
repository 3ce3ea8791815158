"""Tests for GREEDYTRACKING (Algorithm 1, Theorem 5)."""

import pytest

from repro.busytime import (
    best_lower_bound,
    exact_busy_time_interval,
    extract_tracks,
    greedy_tracking,
)
from repro.core import Instance, Job, coverage_counts, span
from repro.instances import random_interval_instance

from oracles import is_proper, is_track, proper_witness_set, track_length


class TestExtractTracks:
    def test_tracks_partition_jobs(self, interval_instance):
        tracks = extract_tracks(interval_instance)
        ids = sorted(j.id for t in tracks for j in t)
        assert ids == sorted(j.id for j in interval_instance.jobs)

    def test_each_track_valid(self, interval_instance):
        for track in extract_tracks(interval_instance):
            assert is_track(track)

    def test_track_lengths_non_increasing(self, rng):
        """Greedy extracts maximum tracks, so lengths never increase."""
        for _ in range(10):
            inst = random_interval_instance(12, 20.0, rng=rng)
            lengths = [track_length(t) for t in extract_tracks(inst)]
            for a, b in zip(lengths, lengths[1:]):
                assert a >= b - 1e-9

    def test_identical_jobs_one_per_track(self):
        inst = Instance.from_intervals([(0, 1)] * 5)
        tracks = extract_tracks(inst)
        assert len(tracks) == 5


class TestGreedyTracking:
    def test_verifies(self, interval_instance):
        s = greedy_tracking(interval_instance, 2)
        s.verify()

    def test_bundles_are_g_tracks(self, rng):
        for _ in range(8):
            inst = random_interval_instance(12, 20.0, rng=rng)
            g = int(rng.integers(1, 4))
            tracks = extract_tracks(inst)
            s = greedy_tracking(inst, g)
            expected_bundles = -(-len(tracks) // g)
            assert s.num_machines == expected_bundles

    def test_capacity_never_exceeded(self, rng):
        for _ in range(10):
            inst = random_interval_instance(15, 25.0, rng=rng)
            g = int(rng.integers(1, 5))
            s = greedy_tracking(inst, g)
            for b in s.bundles:
                assert b.max_overlap() <= g

    def test_within_3x_lower_bound(self, rng):
        for _ in range(20):
            inst = random_interval_instance(12, 20.0, rng=rng)
            g = int(rng.integers(1, 5))
            s = greedy_tracking(inst, g)
            assert s.total_busy_time <= 3 * best_lower_bound(inst, g) + 1e-6

    def test_within_3x_opt_small(self, rng):
        for _ in range(8):
            inst = random_interval_instance(6, 10.0, rng=rng)
            g = int(rng.integers(1, 4))
            opt = exact_busy_time_interval(inst, g).total_busy_time
            s = greedy_tracking(inst, g)
            assert s.total_busy_time <= 3 * opt + 1e-6

    def test_first_bundle_span_at_most_total_span(self, rng):
        """Theorem 5's first step: Sp(B_1) <= Sp(J) = OPT_inf."""
        for _ in range(10):
            inst = random_interval_instance(10, 18.0, rng=rng)
            g = int(rng.integers(1, 4))
            s = greedy_tracking(inst, g)
            total_span = span(j.window for j in inst.jobs)
            assert s.bundles[0].busy_time <= total_span + 1e-9

    def test_empty_and_single(self):
        empty = greedy_tracking(Instance(tuple()), 2)
        assert empty.total_busy_time == 0
        one = greedy_tracking(Instance.from_intervals([(0, 2)]), 2)
        assert one.total_busy_time == pytest.approx(2.0)

    def test_g_identical_jobs_fill_one_machine(self):
        inst = Instance.from_intervals([(0, 2)] * 3)
        s = greedy_tracking(inst, 3)
        assert s.num_machines == 1
        assert s.total_busy_time == pytest.approx(2.0)
        assert s.bundles[0].mass == pytest.approx(3 * s.total_busy_time)


class TestProperWitnessSet:
    def test_span_preserved(self, rng):
        for _ in range(15):
            inst = random_interval_instance(10, 18.0, rng=rng)
            q = proper_witness_set(list(inst.jobs))
            assert span(j.window for j in q) == pytest.approx(
                span(j.window for j in inst.jobs)
            )

    def test_at_most_two_live_anywhere(self, rng):
        for _ in range(15):
            inst = random_interval_instance(10, 18.0, rng=rng)
            q = proper_witness_set(list(inst.jobs))
            cov = coverage_counts([j.window for j in q])
            assert max((c for _, c in cov), default=0) <= 2

    def test_result_is_proper(self, rng):
        for _ in range(10):
            inst = random_interval_instance(8, 15.0, rng=rng)
            q = proper_witness_set(list(inst.jobs))
            sub = Instance(tuple(q))
            assert is_proper(sub)

    def test_empty(self):
        assert proper_witness_set([]) == []

    def test_identical_jobs_collapse_to_one(self):
        jobs = [Job(0, 2, 2, id=i) for i in range(4)]
        assert len(proper_witness_set(jobs)) == 1

    def test_mass_bounds_span(self, rng):
        """ell(Q) >= Sp(Q): the inequality chain in Theorem 5's proof."""
        for _ in range(10):
            inst = random_interval_instance(10, 18.0, rng=rng)
            q = proper_witness_set(list(inst.jobs))
            assert sum(j.length for j in q) >= span(
                j.window for j in q
            ) - 1e-9
