"""Tests for the FIRSTFIT baseline (Flammini et al., 4-approximation)."""

import numpy as np
import pytest

from repro.busytime import (
    best_lower_bound,
    exact_busy_time_interval,
    first_fit,
    fits_in_bundle,
)
from repro.core import Instance, Job
from repro.instances import (
    figure8,
    random_clique_instance,
    random_interval_instance,
    random_proper_instance,
)

from oracles import random_integral_interval_instance, random_laminar_instance

#: Interval families: random real windows, integral windows (many equal
#: lengths), footnote 1's proper, clique and laminar families, and
#: Figure 8's gadget.
FAMILIES = {
    "random": lambda rng: random_interval_instance(12, 16.0, rng=rng),
    "integral": lambda rng: random_integral_interval_instance(
        12, 16.0, rng=rng
    ),
    "proper": lambda rng: random_proper_instance(10, 16.0, rng=rng),
    "clique": lambda rng: random_clique_instance(10, 16.0, rng=rng),
    "laminar": lambda rng: random_laminar_instance(2, 3, rng=rng),
    "figure8": lambda rng: figure8().instance,
}


def replay_first_fit(instance, g):
    """FIRSTFIT by hand: longest job first, equal lengths by release and
    then id; each job joins the first bundle whose load stays below ``g``
    at every point of its window (the load only rises at the job's
    release or at a member's release inside the window)."""
    bundles = []
    order = sorted(instance.jobs, key=lambda j: (-j.length, j.release, j.id))
    for job in order:
        for members in bundles:
            points = [job.release] + [
                m.release for m in members
                if job.release < m.release < job.deadline
            ]
            if all(
                sum(m.release <= t < m.deadline for m in members) < g
                for t in points
            ):
                members.append(job)
                break
        else:
            bundles.append([job])
    return [sorted(j.id for j in members) for members in bundles]


class TestFitsInBundle:
    def test_empty_bundle(self):
        assert fits_in_bundle([], Job(0, 1, 1, id=0), g=1)

    def test_capacity_respected(self):
        members = [Job(0, 2, 2, id=0), Job(0, 2, 2, id=1)]
        assert not fits_in_bundle(members, Job(1, 3, 2, id=2), g=2)
        assert fits_in_bundle(members, Job(1, 3, 2, id=2), g=3)

    def test_disjoint_always_fits(self):
        members = [Job(0, 2, 2, id=0), Job(0, 2, 2, id=1)]
        assert fits_in_bundle(members, Job(5, 6, 1, id=2), g=2)

    def test_peak_inside_job_window_counts(self):
        members = [Job(0, 4, 4, id=0), Job(1, 2, 1, id=1)]
        # peak 2 inside [0,4); adding a job over [1,2) needs g >= 3
        assert not fits_in_bundle(members, Job(1, 2, 1, id=2), g=2)
        assert fits_in_bundle(members, Job(2, 3, 1, id=2), g=2)


class TestFirstFit:
    def test_verifies(self, interval_instance):
        s = first_fit(interval_instance, 2)
        s.verify()

    def test_single_bundle_when_capacity_huge(self, interval_instance):
        s = first_fit(interval_instance, 100)
        assert s.num_machines == 1

    def test_g1_groups_disjoint_jobs(self):
        inst = Instance.from_intervals([(0, 1), (2, 3), (1, 2)])
        s = first_fit(inst, 1)
        assert s.num_machines == 1
        assert s.total_busy_time == pytest.approx(3.0)

    def test_within_4x_lower_bound(self, rng):
        for _ in range(20):
            inst = random_interval_instance(10, 18.0, rng=rng)
            g = int(rng.integers(1, 5))
            s = first_fit(inst, g)
            s.verify()
            assert s.total_busy_time <= 4 * best_lower_bound(inst, g) + 1e-6

    def test_within_4x_opt_small(self, rng):
        for _ in range(8):
            inst = random_interval_instance(6, 10.0, rng=rng)
            g = int(rng.integers(1, 4))
            opt = exact_busy_time_interval(inst, g).total_busy_time
            s = first_fit(inst, g)
            assert s.total_busy_time <= 4 * opt + 1e-6

    def test_clique_fills_each_bundle_to_g(self, rng):
        """All windows share a point, so a bundle holds at most ``g`` jobs.

        FIRSTFIT fills each bundle before it opens the next, so it opens
        ``ceil(n / g)`` bundles: the fewest possible.
        """
        for _ in range(5):
            n = int(rng.integers(1, 12))
            g = int(rng.integers(1, 5))
            inst = random_clique_instance(n, 20.0, rng=rng)
            s = first_fit(inst, g)
            s.verify()
            full, rest = divmod(n, g)
            assert [len(b) for b in s.bundles] == [g] * full + [rest] * (
                rest > 0
            )

    def test_deterministic(self, interval_instance):
        a = first_fit(interval_instance, 2)
        b = first_fit(interval_instance, 2)
        assert [x.job_ids() for x in a.bundles] == [
            x.job_ids() for x in b.bundles
        ]


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestLongestFirst:
    def test_replays_first_fit_by_length(self, family):
        rng = np.random.default_rng(20140623)
        for _ in range(4):
            inst, g = FAMILIES[family](rng), int(rng.integers(1, 4))
            s = first_fit(inst, g)
            s.verify()
            assert [b.job_ids() for b in s.bundles] == replay_first_fit(
                inst, g
            )

    def test_input_position_does_not_matter(self, family):
        """Equal lengths break by release and id, never by where a job
        sits in the input."""
        rng = np.random.default_rng(20140623)
        for _ in range(4):
            inst, g = FAMILIES[family](rng), int(rng.integers(1, 4))
            shuffled = Instance(
                tuple(inst.jobs[k] for k in rng.permutation(inst.n))
            )
            assert [b.job_ids() for b in first_fit(shuffled, g).bundles] == [
                b.job_ids() for b in first_fit(inst, g).bundles
            ]
