"""Tests for the ratio harness and report formatting."""

import math

import pytest

from repro.analysis import (
    RatioSample,
    format_table,
    summarize,
    summarize_groups,
)


def collect_ratios(label, runs):
    """One sample per ``(cost, baseline)`` pair."""
    return [RatioSample(label, cost, baseline) for cost, baseline in runs]


class TestRatioSample:
    def test_ratio(self):
        assert RatioSample("x", 3.0, 2.0).ratio == 1.5

    def test_zero_baseline(self):
        assert RatioSample("x", 0.0, 0.0).ratio == 0.0
        assert math.isinf(RatioSample("x", 1.0, 0.0).ratio)


class TestSummarize:
    def test_aggregates(self):
        samples = collect_ratios("alg", [(2, 1), (3, 2), (4, 4)])
        s = summarize(samples)
        assert s.count == 3
        assert s.worst == 2.0
        assert s.best == 1.0
        assert s.mean == pytest.approx((2 + 1.5 + 1) / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_row_format(self):
        s = summarize(collect_ratios("alg", [(2, 1)]))
        row = s.row()
        assert "alg" in row and "n=1" in row


class TestSummarizeGroups:
    def test_one_summary_per_label_sorted(self):
        samples = collect_ratios("b", [(2, 1)]) + collect_ratios(
            "a", [(3, 1), (1, 1)]
        )
        groups = summarize_groups(samples)
        assert [s.label for s in groups] == ["a", "b"]
        assert [s.count for s in groups] == [2, 1]
        assert groups[0].worst == 3.0 and groups[0].best == 1.0

    def test_matches_summarize_per_label(self):
        samples = collect_ratios("x", [(4, 2), (5, 5)]) + collect_ratios(
            "y", [(1, 1)]
        )
        for group in summarize_groups(samples):
            same = [s for s in samples if s.label == group.label]
            assert group == summarize(same)

    def test_empty(self):
        assert summarize_groups([]) == []


class TestReportFormatting:
    def test_table_alignment(self):
        out = format_table(
            "Title", ["a", "bb"], [[1, 2.34567], ["xyz", 3]]
        )
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert set(lines[1]) == {"="}
        assert "2.346" in out
