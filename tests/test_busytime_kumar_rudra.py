"""Tests for the Kumar–Rudra-style level/parity 2-approximation."""

import importlib
from collections import deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.busytime import (
    assign_levels,
    compute_demand_profile,
    demand_profile_lower_bound,
    exact_busy_time_interval,
    kumar_rudra,
    opt_infinity,
    pad_to_multiple_of_g,
    pin_instance,
    two_color_level,
)
from repro.core import TIME_EPS, Instance, Job, coverage_counts
from repro.instances import SWEEP_GENERATORS, figure8, random_interval_instance

# The package re-exports the function under the module's own name.
kr_module = importlib.import_module("repro.busytime.kumar_rudra")

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestAssignLevels:
    def test_every_job_assigned(self, rng):
        for _ in range(10):
            inst = random_interval_instance(8, 15.0, rng=rng)
            g = int(rng.integers(1, 4))
            padded, _ = pad_to_multiple_of_g(inst, g)
            levels = assign_levels(padded, g)
            assert set(levels) == {j.id for j in padded.jobs}
            assert min(levels.values()) >= 1

    def test_at_most_two_per_level_pointwise(self, rng):
        for _ in range(15):
            inst = random_interval_instance(10, 18.0, rng=rng)
            g = int(rng.integers(1, 4))
            padded, _ = pad_to_multiple_of_g(inst, g)
            levels = assign_levels(padded, g)
            by_level: dict[int, list] = {}
            for job in padded.jobs:
                by_level.setdefault(levels[job.id], []).append(job)
            for members in by_level.values():
                cov = coverage_counts([j.window for j in members])
                assert max((c for _, c in cov), default=0) <= 2

    def test_levels_at_most_max_raw_demand(self, rng):
        for _ in range(10):
            inst = random_interval_instance(8, 15.0, rng=rng)
            g = int(rng.integers(1, 4))
            padded, _ = pad_to_multiple_of_g(inst, g)
            levels = assign_levels(padded, g)
            assert max(levels.values()) <= max(
                compute_demand_profile(padded, 1).raw
            )


class TestTwoColoring:
    def test_disjoint_jobs_any_coloring(self):
        jobs = [Job(0, 1, 1, id=0), Job(2, 3, 1, id=1)]
        coloring = two_color_level(jobs)
        assert set(coloring) == {0, 1}

    def test_overlapping_pair_separated(self):
        jobs = [Job(0, 2, 2, id=0), Job(1, 3, 2, id=1)]
        coloring = two_color_level(jobs)
        assert coloring[0] != coloring[1]

    def test_star_overlap_bipartite(self):
        center = Job(0, 10, 10, id=0)
        leaves = [Job(2 * i + 1, 2 * i + 2, 1, id=i + 1) for i in range(3)]
        coloring = two_color_level([center] + leaves)
        for leaf in leaves:
            assert coloring[leaf.id] != coloring[0]

    def test_touching_within_eps_is_not_an_overlap(self):
        # 1.0 + 1e-9 - TIME_EPS == 1.0 exactly; an edge needs r_b < d_a - ε.
        jobs = [Job(0.0, 1.0 + 1e-9, 1.0 + 1e-9, id=0), Job(1.0, 2.0, 1.0, id=1)]
        assert two_color_level(jobs) == {0: 0, 1: 0}

    def test_window_shorter_than_eps_overlaps_nothing(self):
        jobs = [Job(1.0, 3.0, 2.0, id=0), Job(1.0, 1.0 + 0.5e-9, 0.5e-9, id=1)]
        assert two_color_level(jobs) == {0: 0, 1: 0}

    def test_triple_overlap_raises(self):
        jobs = [Job(0, 2, 2, id=0), Job(0, 2, 2, id=1), Job(0, 2, 2, id=2)]
        with pytest.raises(RuntimeError, match="bipartite"):
            two_color_level(jobs)


class TestKumarRudra:
    def test_verifies(self, interval_instance):
        s = kumar_rudra(interval_instance, 2)
        s.verify()

    def test_within_2x_profile(self, rng):
        for _ in range(25):
            inst = random_interval_instance(12, 20.0, rng=rng)
            g = int(rng.integers(1, 5))
            s = kumar_rudra(inst, g)
            s.verify()
            assert s.total_busy_time <= 2 * demand_profile_lower_bound(
                inst, g
            ) + 1e-6

    def test_within_2x_opt_small(self, rng):
        for _ in range(6):
            inst = random_interval_instance(6, 10.0, rng=rng)
            g = int(rng.integers(1, 4))
            opt = exact_busy_time_interval(inst, g).total_busy_time
            s = kumar_rudra(inst, g)
            assert s.total_busy_time <= 2 * opt + 1e-6

    def test_no_dummies_in_output(self, rng):
        from repro.busytime.demand_profile import DUMMY_LABEL

        inst = random_interval_instance(8, 15.0, rng=rng)
        s = kumar_rudra(inst, 3)
        for b in s.bundles:
            for j in b.jobs:
                assert j.label != DUMMY_LABEL

    def test_figure8(self):
        gad = figure8()
        s = kumar_rudra(gad.instance, gad.g)
        s.verify()
        assert s.total_busy_time <= 2 * gad.facts["opt_busy_time"] + 1e-9

    def test_empty(self):
        assert kumar_rudra(Instance(tuple()), 2).total_busy_time == 0.0


# ----------------------------------------------------------------------
# Same decisions as the quadratic formulation
# ----------------------------------------------------------------------
def reference_assign_levels(padded, g):
    """The quadratic level chooser: a span-minimum ceiling per job, job
    lists per level, and a live count over each candidate level's list."""
    profile = compute_demand_profile(padded, 1)
    segments = profile.segments
    raw = profile.raw

    def min_demand_over(job):
        vals = [
            raw[i]
            for i, (a, b) in enumerate(segments)
            if a < job.deadline - TIME_EPS and b > job.release + TIME_EPS
        ]
        return min(vals) if vals else 0

    ordered = sorted(padded.jobs, key=lambda j: (j.release, -j.length, j.id))
    level_of = {}
    levels = []

    def live_count(level_jobs, t):
        return sum(
            1
            for j in level_jobs
            if j.release <= t + TIME_EPS and j.deadline > t + TIME_EPS
        )

    for job in ordered:
        ceiling = min_demand_over(job)
        chosen = None
        for l in range(min(ceiling, len(levels))):
            if live_count(levels[l], job.release) <= 1:
                chosen = l
                break
        if chosen is None and ceiling > len(levels):
            chosen = len(levels)
            levels.append([])
        if chosen is None:
            for l in range(len(levels)):
                if live_count(levels[l], job.release) <= 1:
                    chosen = l
                    break
            if chosen is None:
                chosen = len(levels)
                levels.append([])
        levels[chosen].append(job)
        level_of[job.id] = chosen + 1
    return level_of


def reference_two_color_level(jobs):
    """BFS 2-colouring over all-pairs overlap edges."""
    adj = {j.id: [] for j in jobs}
    for i, a in enumerate(jobs):
        for b in jobs[i + 1 :]:
            if a.release < b.deadline - TIME_EPS and b.release < a.deadline - TIME_EPS:
                adj[a.id].append(b.id)
                adj[b.id].append(a.id)
    color = {}
    for j in jobs:
        if j.id in color:
            continue
        color[j.id] = 0
        queue = deque([j.id])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    raise RuntimeError("level overlap graph not bipartite")
    return color


def _coloring_or_error(color_fn, jobs):
    try:
        return color_fn(jobs)
    except RuntimeError:
        return "not bipartite"


def _bundles(schedule):
    return [[(j.id, j.release, j.deadline) for j in b.jobs] for b in schedule.bundles]


#: (generator, g, seed): random, figure-8 and benchmark-shaped inputs; the
#: random and figure-8 cases pick their own g.
DECISION_CASES = (
    [("random", None, seed) for seed in range(40)]
    + [("figure8", None, 0)]
    + [
        (gen, g, seed)
        for gen in ("interval", "proper", "clique")
        for g in (2, 3, 4)
        for seed in (0, 1)
    ]
    + [("flexible", 4, seed) for seed in (0, 1)]
)


def _decision_instance(gen, g, seed):
    if gen == "random":
        rng = np.random.default_rng(1814 + seed)
        n = int(rng.integers(1, 40))
        horizon = 4.0 + float(rng.choice([0.5, 1.0, 2.0])) * n
        return random_interval_instance(n, horizon, rng=rng), int(rng.integers(1, 6))
    if gen == "figure8":
        gad = figure8()
        return gad.instance, gad.g
    if gen == "flexible":
        flexible = SWEEP_GENERATORS[gen](40, 30, g, seed)
        return pin_instance(flexible, opt_infinity(flexible).starts), g
    return SWEEP_GENERATORS[gen](80, 60, g, seed), g


@st.composite
def grid_interval_instances(draw, max_n=12):
    """Interval jobs on a coarse grid with sub-ε offsets, drawn from a small
    pool of windows so identical windows repeat."""
    times = st.builds(
        lambda base, k: base + k * TIME_EPS / 2,
        st.integers(0, 8).map(float),
        st.integers(-3, 3),
    )
    pool = draw(st.lists(st.tuples(times, times), min_size=1, max_size=max_n))
    jobs = []
    for a, b in draw(st.lists(st.sampled_from(pool), max_size=max_n)):
        a, b = min(a, b), max(a, b)
        if b > a:
            jobs.append(Job(a, b, b - a, id=len(jobs)))
    return Instance(tuple(jobs))


class TestSameDecisionsAsQuadraticReference:
    @pytest.mark.parametrize("gen, g, seed", DECISION_CASES)
    def test_levels_colors_and_bundles(self, gen, g, seed, monkeypatch):
        inst, g = _decision_instance(gen, g, seed)
        padded, _ = pad_to_multiple_of_g(inst, g)
        levels = assign_levels(padded, g)
        assert levels == reference_assign_levels(padded, g)
        by_level: dict[int, list] = {}
        for job in padded.jobs:
            by_level.setdefault(levels[job.id], []).append(job)
        for members in by_level.values():
            assert two_color_level(members) == reference_two_color_level(members)
        fast = kumar_rudra(inst, g)
        monkeypatch.setattr(kr_module, "assign_levels", reference_assign_levels)
        monkeypatch.setattr(kr_module, "two_color_level", reference_two_color_level)
        slow = kumar_rudra(inst, g)
        assert _bundles(fast) == _bundles(slow)
        assert fast.total_busy_time == slow.total_busy_time

    @given(grid_interval_instances(), st.integers(1, 4))
    @settings(max_examples=200, **COMMON)
    def test_levels_on_eps_close_endpoints(self, inst, g):
        padded, _ = pad_to_multiple_of_g(inst, g)
        assert assign_levels(padded, g) == reference_assign_levels(padded, g)

    @given(grid_interval_instances(max_n=7))
    @settings(max_examples=300, **COMMON)
    def test_coloring_of_any_job_list(self, inst):
        # Arbitrary lists, not only levels: triangles must raise in both.
        jobs = list(inst.jobs)
        assert _coloring_or_error(two_color_level, jobs) == _coloring_or_error(
            reference_two_color_level, jobs
        )
