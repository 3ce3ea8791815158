"""Unit tests for interval algebra (repro.core.intervals)."""

import pytest

from repro.core import (
    Instance,
    coverage_counts,
    interesting_intervals,
    length,
    merge_intervals,
    span,
    subtract,
    total_length,
)


class TestLengthAndSpan:
    def test_length(self):
        assert length((1.0, 3.5)) == 2.5

    def test_length_empty(self):
        assert length((2.0, 2.0)) == 0.0
        assert length((3.0, 2.0)) == 0.0  # degenerate clamps to 0

    def test_total_length_counts_overlaps(self):
        assert total_length([(0, 2), (1, 3)]) == 4.0

    def test_span_merges_overlaps(self):
        assert span([(0, 2), (1, 3)]) == 3.0

    def test_span_disjoint(self):
        assert span([(0, 1), (2, 3)]) == 2.0

    def test_span_matches_definition_10(self):
        # Sp({I, I'}) = l(I) + Sp(I') - l(I ∩ I')
        i1, i2 = (0.0, 2.0), (1.0, 4.0)
        expected = length(i1) + length(i2) - length((1.0, 2.0))  # I ∩ I'
        assert span([i1, i2]) == pytest.approx(expected)

    def test_span_empty(self):
        assert span([]) == 0.0


class TestMerge:
    def test_merge_touching(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_merge_nested(self):
        assert merge_intervals([(0, 5), (1, 2)]) == [(0, 5)]

    def test_merge_keeps_gaps(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_merge_unsorted_input(self):
        assert merge_intervals([(4, 5), (0, 1), (0.5, 2)]) == [(0, 2), (4, 5)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(1, 1), (2, 2)]) == []


class TestSubtract:
    def test_cut_middle(self):
        assert subtract((0, 10), [(3, 5)]) == [(0, 3), (5, 10)]

    def test_cut_ends(self):
        assert subtract((0, 10), [(0, 2), (8, 10)]) == [(2, 8)]

    def test_cut_everything(self):
        assert subtract((0, 10), [(0, 10)]) == []

    def test_cut_nothing(self):
        assert subtract((0, 10), []) == [(0, 10)]

    def test_cut_overlapping_pieces(self):
        assert subtract((0, 10), [(1, 4), (3, 6)]) == [(0, 1), (6, 10)]


class TestInterestingIntervals:
    def test_empty_instance(self):
        assert interesting_intervals(Instance(tuple())) == []

    def test_single_job(self):
        inst = Instance.from_intervals([(1.0, 3.0)])
        assert interesting_intervals(inst) == [(1.0, 3.0)]

    def test_segments_split_at_endpoints(self):
        inst = Instance.from_intervals([(0, 2), (1, 3)])
        assert interesting_intervals(inst) == [(0, 1), (1, 2), (2, 3)]

    def test_zero_demand_gaps_excluded(self):
        inst = Instance.from_intervals([(0, 1), (3, 4)])
        assert interesting_intervals(inst) == [(0, 1), (3, 4)]

    def test_at_most_2n_minus_1_segments(self, rng):
        from repro.instances import random_interval_instance

        for _ in range(20):
            inst = random_interval_instance(8, 15.0, rng=rng)
            segs = interesting_intervals(inst)
            assert len(segs) <= 2 * inst.n - 1

    def test_no_job_endpoint_interior(self, interval_instance):
        segs = interesting_intervals(interval_instance)
        endpoints = {j.release for j in interval_instance.jobs} | {
            j.deadline for j in interval_instance.jobs
        }
        for a, b in segs:
            for e in endpoints:
                assert not (a + 1e-9 < e < b - 1e-9)


class TestCoverageCounts:
    def test_empty(self):
        assert coverage_counts([]) == []

    def test_single(self):
        assert coverage_counts([(0, 2)]) == [((0, 2), 1)]

    def test_stacked(self):
        cov = coverage_counts([(0, 2), (0, 2), (0, 2)])
        assert cov == [((0, 2), 3)]

    def test_staircase(self):
        cov = coverage_counts([(0, 3), (1, 4)])
        assert cov == [((0, 1), 1), ((1, 3), 2), ((3, 4), 1)]

    def test_gap_omitted(self):
        cov = coverage_counts([(0, 1), (2, 3)])
        assert cov == [((0, 1), 1), ((2, 3), 1)]

    def test_total_mass_conserved(self, rng):
        ivs = []
        for _ in range(15):
            a = float(rng.uniform(0, 10))
            b = a + float(rng.uniform(0.1, 3))
            ivs.append((a, b))
        cov = coverage_counts(ivs)
        mass = sum((b - a) * c for (a, b), c in cov)
        assert mass == pytest.approx(total_length(ivs))
