"""Tests for the FIRSTFIT baseline (Flammini et al., 4-approximation)."""

import pytest

from repro.busytime import (
    best_lower_bound,
    exact_busy_time_interval,
    first_fit,
    fits_in_bundle,
)
from repro.core import Instance, Job
from repro.instances import (
    random_clique_instance,
    random_interval_instance,
    random_proper_instance,
)

from oracles import is_proper


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

    def test_orders(self, interval_instance):
        for order in ("length", "release", "input"):
            s = first_fit(interval_instance, 2, order=order)
            s.verify()

    def test_unknown_order(self, interval_instance):
        with pytest.raises(ValueError):
            first_fit(interval_instance, 2, order="magic")

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

    def test_release_order_on_proper_instances_2x(self, rng):
        """Footnote 1: greedy by release is 2-approximate on proper instances."""
        for _ in range(10):
            inst = random_proper_instance(8, 15.0, rng=rng)
            assert is_proper(inst)
            g = int(rng.integers(1, 4))
            opt = exact_busy_time_interval(inst, g).total_busy_time
            s = first_fit(inst, g, order="release")
            s.verify()
            assert s.total_busy_time <= 2 * opt + 1e-6

    @pytest.mark.parametrize("order", ["length", "release", "input"])
    def test_clique_fills_each_bundle_to_g(self, order, rng):
        """All windows share a point, so a bundle holds at most ``g`` jobs.

        FIRSTFIT fills each bundle before it opens the next, whatever the
        order, so it opens ``ceil(n / g)`` bundles: the fewest possible.
        """
        for _ in range(5):
            n = int(rng.integers(1, 12))
            g = int(rng.integers(1, 5))
            inst = random_clique_instance(n, 20.0, rng=rng)
            s = first_fit(inst, g, order=order)
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
