"""Property-based tests for the io round trips, the two exact OPT_∞ solvers,
the instance-structure tests, FIRSTFIT's fit test and pinning."""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import Instance, Job

from oracles import is_clique, is_laminar, is_proper

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def integral_flexible(draw, max_n=7, max_t=11):
    n = draw(st.integers(1, max_n))
    jobs = []
    for i in range(n):
        p = draw(st.integers(1, 3))
        slack = draw(st.integers(0, 4))
        r = draw(st.integers(0, max(0, max_t - p - slack)))
        jobs.append(Job(r, r + p + slack, p, id=i))
    return Instance(tuple(jobs))


@st.composite
def integral_intervals(draw, max_n=7, max_t=11):
    n = draw(st.integers(1, max_n))
    jobs = []
    for i in range(n):
        p = draw(st.integers(1, 4))
        r = draw(st.integers(0, max_t - p))
        jobs.append(Job(r, r + p, p, id=i))
    return Instance(tuple(jobs))


@st.composite
def pinned_flexible(draw):
    """An integral flexible instance and a feasible start for every job."""
    inst = draw(integral_flexible())
    starts = {
        j.id: draw(st.integers(int(j.release), int(j.deadline - j.length)))
        for j in inst.jobs
    }
    return inst, starts


def _points(job):
    """The middles of an integral window's slots, one point per slot."""
    return {t + 0.5 for t in range(int(job.release), int(job.deadline))}


class TestStructureProperties:
    """``is_proper``, ``is_clique`` and ``is_laminar`` against set algebra."""

    @given(integral_intervals())
    @settings(max_examples=100, **COMMON)
    def test_proper_means_no_window_strictly_inside_another(self, inst):
        inside = any(
            _points(a) < _points(b) for a in inst.jobs for b in inst.jobs
        )
        assert is_proper(inst) == (not inside)

    @given(integral_intervals(max_t=7))
    @settings(max_examples=100, **COMMON)
    def test_clique_means_one_point_in_every_window(self, inst):
        common = set.intersection(*(_points(j) for j in inst.jobs))
        assert is_clique(inst) == bool(common)

    @given(integral_intervals())
    @settings(max_examples=100, **COMMON)
    def test_laminar_means_nested_or_disjoint(self, inst):
        ok = all(
            a <= b or b <= a or not a & b
            for a, b in itertools.combinations(map(_points, inst.jobs), 2)
        )
        assert is_laminar(inst) == ok


class TestFitsInBundleProperties:
    @given(integral_intervals(), st.integers(1, 3))
    @settings(max_examples=100, **COMMON)
    def test_fits_when_fewer_than_g_members_cover_each_point(self, inst, g):
        from repro.busytime import fits_in_bundle

        *members, job = inst.jobs
        room = all(
            sum(t in _points(m) for m in members) < g for t in _points(job)
        )
        assert fits_in_bundle(members, job, g) == room


class TestPinningProperties:
    @given(pinned_flexible())
    @settings(max_examples=100, **COMMON)
    def test_pinned_jobs_are_intervals_at_their_starts(self, case):
        from repro.busytime import pin_instance

        inst, starts = case
        pinned = pin_instance(inst, starts)
        assert pinned.all_interval
        for job, pin in zip(inst.jobs, pinned.jobs):
            assert pin.id == job.id
            assert pin.length == job.length
            assert pin.window == (starts[job.id], starts[job.id] + job.length)

    @given(integral_flexible(max_n=6, max_t=9))
    @settings(max_examples=20, **COMMON)
    def test_pinning_at_opt_infinity_spans_opt_infinity(self, inst):
        from repro.busytime import opt_infinity, pin_instance
        from repro.core.intervals import span

        placement = opt_infinity(inst)
        pinned = pin_instance(inst, placement.starts)
        assert span(j.window for j in pinned.jobs) == pytest.approx(
            placement.busy_time, abs=1e-9
        )


class TestIoProperties:
    @given(integral_flexible())
    @settings(max_examples=100, **COMMON)
    def test_json_roundtrip(self, inst):
        from repro.io import instance_from_json, instance_to_json

        assert instance_from_json(instance_to_json(inst)) == inst

    @given(integral_flexible())
    @settings(max_examples=100, **COMMON)
    def test_csv_roundtrip(self, inst):
        from repro.io import instance_from_csv, instance_to_csv

        assert instance_from_csv(instance_to_csv(inst)) == inst


class TestSpanSearchProperties:
    @given(integral_flexible(max_n=6, max_t=9))
    @settings(max_examples=20, **COMMON)
    def test_two_exact_solvers_agree(self, inst):
        from repro.busytime import opt_infinity
        from oracles import span_search_exact

        value, starts = span_search_exact(inst)
        assert value == pytest.approx(opt_infinity(inst).busy_time, abs=1e-9)
        for jid, s in starts.items():
            assert inst.job_by_id(jid).can_start_at(s)

    @given(integral_flexible(max_n=6, max_t=9))
    @settings(max_examples=20, **COMMON)
    def test_earliest_fit_upper_bounds(self, inst):
        from oracles import earliest_fit_span, span_search_exact

        upper, _ = earliest_fit_span(inst)
        exact, _ = span_search_exact(inst)
        assert exact <= upper + 1e-9

