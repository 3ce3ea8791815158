"""The one-pass demand profile equals point queries at segment midpoints.

:func:`raw_demand_segments` counts every interesting interval's raw demand
``|A(I)|`` by bisecting sorted window bounds.  The reference here is the
definition itself: split the line at every release time and deadline, drop
pieces no longer than ε, and ask ``oracles.raw_demand_at`` at each
remaining piece's midpoint.  Endpoints are drawn on a coarse grid with
offsets in steps of ε/2, so endpoints less than ε and less than 2ε apart
occur, as do zero-demand gaps and identical windows.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.busytime import compute_demand_profile, pad_to_multiple_of_g
from repro.busytime.demand_profile import DUMMY_LABEL
from repro.core import (
    TIME_EPS,
    Instance,
    Job,
    interesting_intervals,
    raw_demand_segments,
)

from oracles import raw_demand_at

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def reference_segments(instance: Instance) -> list[tuple[tuple[float, float], int]]:
    """Each interesting interval with ``raw_demand_at`` at its midpoint."""
    points = instance.event_points()
    out = []
    for a, b in zip(points, points[1:]):
        if b - a > TIME_EPS:
            raw = raw_demand_at(instance, 0.5 * (a + b))
            if raw > 0:
                out.append(((a, b), raw))
    return out


def reference_dummies(instance: Instance, g: int) -> list[tuple[float, float]]:
    """Appendix A.1 padding from the reference profile: one window per dummy."""
    out = []
    for (a, b), raw in reference_segments(instance):
        out += [(a, b)] * (-(-raw // g) * g - raw)
    return out


#: Grid times 0..6 shifted by a multiple of ε/2 in [-2ε, 2ε].
times = st.builds(
    lambda base, k: base + k * TIME_EPS / 2,
    st.integers(0, 6).map(float),
    st.integers(-4, 4),
)


@st.composite
def instances(draw, flexible: bool = False, max_n: int = 9) -> Instance:
    """Windows drawn from a small pool, so identical windows repeat.

    Flexible jobs get a length below their window, and may have a window
    that ends up to ε before it starts (a :class:`Job` allows that).
    """
    pool = draw(st.lists(st.tuples(times, times), min_size=1, max_size=max_n))
    picks = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=max_n))
    jobs = []
    for r, d in picks:
        if not flexible:
            r, d = min(r, d), max(r, d)
            if d > r:
                jobs.append(Job(r, d, d - r, id=len(jobs)))
        elif d - r > 0:
            share = draw(st.sampled_from([0.25, 0.5, 1.0]))
            jobs.append(Job(r, d, share * (d - r), id=len(jobs)))
        elif d - r > -TIME_EPS:
            jobs.append(Job(r, d, (d - r + TIME_EPS) / 2, id=len(jobs)))
    return Instance(tuple(jobs))


class TestAgainstPointQueries:
    @given(instances())
    @settings(max_examples=300, **COMMON)
    def test_interval_segments_and_counts(self, instance):
        expected = reference_segments(instance)
        segments, raw = raw_demand_segments(instance)
        assert list(zip(segments, raw)) == expected
        assert interesting_intervals(instance) == [s for s, _ in expected]

    @given(instances(flexible=True))
    @settings(max_examples=300, **COMMON)
    def test_flexible_windows(self, instance):
        expected = reference_segments(instance)
        assert list(zip(*raw_demand_segments(instance))) == expected
        assert interesting_intervals(instance) == [s for s, _ in expected]

    @given(instances(), st.integers(1, 4))
    @settings(max_examples=200, **COMMON)
    def test_demand_profile(self, instance, g):
        expected = reference_segments(instance)
        profile = compute_demand_profile(instance, g)
        assert profile.g == g
        assert list(zip(profile.segments, profile.raw)) == expected
        assert profile.cost == sum(-(-raw // g) * (b - a) for (a, b), raw in expected)

    @given(instances(), st.integers(1, 4))
    @settings(max_examples=200, **COMMON)
    def test_padding(self, instance, g):
        padded, dummy_ids = pad_to_multiple_of_g(instance, g)
        assert padded.jobs[: instance.n] == instance.jobs
        dummies = padded.jobs[instance.n :]
        assert [d.window for d in dummies] == reference_dummies(instance, g)
        assert [d.id for d in dummies] == dummy_ids
        assert all(d.label == DUMMY_LABEL for d in dummies)
        # The padded instance carries windows exactly one segment wide.
        assert list(zip(*raw_demand_segments(padded))) == reference_segments(padded)


class TestExamples:
    def test_empty_instance(self):
        empty = Instance(tuple())
        assert raw_demand_segments(empty) == ([], [])
        assert interesting_intervals(empty) == []
        profile = compute_demand_profile(empty, 2)
        assert profile.segments == () and profile.raw == () and profile.cost == 0
        assert pad_to_multiple_of_g(empty, 2) == (empty, [])

    def test_endpoints_under_eps_apart(self):
        inst = Instance.from_intervals([(0.0, 1.0), (1.0 + 0.5e-9, 2.0), (0.0, 2.0)])
        assert list(zip(*raw_demand_segments(inst))) == reference_segments(inst)
        assert interesting_intervals(inst) == [(0.0, 1.0), (1.0 + 0.5e-9, 2.0)]

    def test_endpoints_under_two_eps_apart(self):
        inst = Instance.from_intervals([(0.0, 1.0), (1.0 + 1.5e-9, 2.0), (0.0, 2.0)])
        expected = reference_segments(inst)
        assert [s for s, _ in expected] == [
            (0.0, 1.0),
            (1.0, 1.0 + 1.5e-9),
            (1.0 + 1.5e-9, 2.0),
        ]
        assert list(zip(*raw_demand_segments(inst))) == expected

    def test_zero_demand_gap_and_identical_windows(self):
        inst = Instance.from_intervals([(0, 1), (0, 1), (0, 1), (3, 4)])
        assert raw_demand_segments(inst) == ([(0, 1), (3, 4)], [3, 1])

    def test_window_ending_before_it_starts_is_never_live(self):
        inst = Instance(
            (
                Job(0.0, 1.0 - 1.5e-9, 0.5, id=0),
                Job(1.0 + 0.5e-9, 1.0, 0.25e-9, id=1),
                Job(1.0, 2.0, 1.0, id=2),
            )
        )
        assert not inst.jobs[1].is_live_at(1.0 - 0.75e-9)
        assert list(zip(*raw_demand_segments(inst))) == reference_segments(inst)
