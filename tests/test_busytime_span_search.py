"""Tests for the combinatorial OPT_inf search (repro.busytime.span_search)."""

import pytest

from repro.busytime import opt_infinity, pin_instance
from repro.core import Instance, span
from repro.instances import random_flexible_instance

from oracles import earliest_fit_span, span_search_exact


class TestEarliestFit:
    def test_upper_bounds_opt(self, rng):
        for _ in range(10):
            inst = random_flexible_instance(6, 10, rng=rng)
            upper, starts = earliest_fit_span(inst)
            assert upper >= opt_infinity(inst).busy_time - 1e-9
            pinned = pin_instance(inst, starts)
            assert span(j.window for j in pinned.jobs) == pytest.approx(upper)

    def test_empty(self):
        value, starts = earliest_fit_span(Instance(tuple()))
        assert value == 0.0
        assert starts == {}


class TestSpanSearch:
    def test_matches_milp(self, rng):
        """The two independent exact solvers agree."""
        for _ in range(25):
            n = int(rng.integers(1, 9))
            T = int(rng.integers(2, 13))
            inst = random_flexible_instance(n, T, rng=rng)
            value, starts = span_search_exact(inst)
            assert value == pytest.approx(
                opt_infinity(inst).busy_time, abs=1e-9
            )

    def test_starts_realize_value(self, rng):
        for _ in range(12):
            inst = random_flexible_instance(6, 10, rng=rng)
            value, starts = span_search_exact(inst)
            pinned = pin_instance(inst, starts)
            assert span(j.window for j in pinned.jobs) == pytest.approx(
                value, abs=1e-9
            )

    def test_starts_within_windows(self, rng):
        inst = random_flexible_instance(7, 11, rng=rng)
        _, starts = span_search_exact(inst)
        for jid, s in starts.items():
            assert inst.job_by_id(jid).can_start_at(s)

    def test_empty(self):
        assert span_search_exact(Instance(tuple())) == (0.0, {})

    def test_single_job(self):
        inst = Instance.from_tuples([(0, 5, 3)])
        value, starts = span_search_exact(inst)
        assert value == pytest.approx(3.0)

    def test_consolidation(self):
        inst = Instance.from_tuples([(0, 6, 2), (0, 6, 2), (2, 8, 2)])
        value, _ = span_search_exact(inst)
        assert value == pytest.approx(2.0)

    def test_forced_split(self):
        # two rigid jobs far apart plus a flexible bridge that fits either
        inst = Instance.from_tuples([(0, 2, 2), (8, 10, 2), (0, 10, 2)])
        value, starts = span_search_exact(inst)
        assert value == pytest.approx(4.0)

    def test_guard(self, rng):
        inst = random_flexible_instance(20, 25, rng=rng)
        with pytest.raises(ValueError, match="limited"):
            span_search_exact(inst)

    def test_rejects_non_integral(self):
        inst = Instance.from_intervals([(0.0, 1.5)])
        with pytest.raises(ValueError):
            span_search_exact(inst)
