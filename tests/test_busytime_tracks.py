"""Tests for track extraction (weighted interval scheduling)."""

import pytest

from repro.busytime import longest_track
from repro.core import Instance, Job
from repro.instances import random_interval_instance

from oracles import is_track, track_length


class TestIsTrack:
    def test_disjoint(self):
        assert is_track([Job(0, 1, 1, id=0), Job(2, 3, 1, id=1)])

    def test_touching_counts_as_disjoint(self):
        assert is_track([Job(0, 1, 1, id=0), Job(1, 2, 1, id=1)])

    def test_overlap_rejected(self):
        assert not is_track([Job(0, 2, 2, id=0), Job(1, 3, 2, id=1)])

    def test_empty(self):
        assert is_track([])


class TestLongestTrack:
    def test_empty(self):
        assert longest_track([]) == []

    def test_single(self):
        jobs = [Job(0, 3, 3, id=0)]
        assert longest_track(jobs) == jobs

    def test_prefers_total_length_over_count(self):
        long_job = Job(0, 10, 10, id=0)
        shorts = [Job(i * 2, i * 2 + 1, 1, id=1 + i) for i in range(5)]
        track = longest_track([long_job] + shorts)
        assert track == [long_job]

    def test_picks_compatible_combination(self):
        a = Job(0, 3, 3, id=0)
        b = Job(3, 6, 3, id=1)
        c = Job(2, 4, 2, id=2)  # conflicts with both
        track = longest_track([a, b, c])
        assert {j.id for j in track} == {0, 1}
        assert track_length(track) == 6

    def test_touching_jobs_chainable(self):
        jobs = [Job(i, i + 1, 1, id=i) for i in range(5)]
        track = longest_track(jobs)
        assert len(track) == 5

    def test_output_sorted_by_start(self, rng):
        for _ in range(10):
            inst = random_interval_instance(10, 20.0, rng=rng)
            track = longest_track(list(inst.jobs))
            starts = [j.release for j in track]
            assert starts == sorted(starts)
            assert is_track(track)

    def test_rejects_flexible_jobs(self):
        with pytest.raises(ValueError, match="flexible"):
            longest_track([Job(0, 5, 2, id=0)])

    def test_optimal_against_brute_force(self, rng):
        import itertools

        for _ in range(10):
            inst = random_interval_instance(7, 10.0, rng=rng)
            jobs = list(inst.jobs)
            best = 0.0
            for r in range(1, len(jobs) + 1):
                for combo in itertools.combinations(jobs, r):
                    if is_track(combo):
                        best = max(best, track_length(combo))
            track = longest_track(jobs)
            assert track_length(track) == pytest.approx(best)

    def test_identical_jobs_take_one(self):
        jobs = [Job(0, 2, 2, id=i) for i in range(4)]
        track = longest_track(jobs)
        assert len(track) == 1
