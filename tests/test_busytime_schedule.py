"""Tests for busy-time schedule objects and verification."""

import pytest

from repro.busytime import Bundle, BusyTimeSchedule, BusyVerificationError
from repro.core import Instance, Job


class TestBundle:
    def test_busy_time_is_span(self):
        b = Bundle((Job(0, 2, 2, id=0), Job(1, 3, 2, id=1)))
        assert b.busy_time == pytest.approx(3.0)
        assert b.busy_intervals == [(0, 3)]

    def test_mass(self):
        b = Bundle((Job(0, 2, 2, id=0), Job(1, 3, 2, id=1)))
        assert b.mass == pytest.approx(4.0)

    def test_max_overlap(self):
        b = Bundle(
            (Job(0, 2, 2, id=0), Job(1, 3, 2, id=1), Job(1.5, 2.5, 1, id=2))
        )
        assert b.max_overlap() == 3

    def test_disjoint_bundle(self):
        b = Bundle((Job(0, 1, 1, id=0), Job(2, 3, 1, id=1)))
        assert b.max_overlap() == 1
        assert b.busy_time == pytest.approx(2.0)

    def test_job_ids_and_len(self):
        b = Bundle((Job(0, 1, 1, id=4), Job(2, 3, 1, id=2)))
        assert b.job_ids() == [2, 4]
        assert len(b) == 2


class TestScheduleAggregates:
    def test_total_busy_time(self, interval_instance):
        groups = [[j] for j in interval_instance.jobs]
        s = BusyTimeSchedule.from_bundle_jobs(interval_instance, 1, groups)
        assert s.total_busy_time == pytest.approx(
            sum(j.length for j in interval_instance.jobs)
        )
        assert s.num_machines == interval_instance.n

    def test_empty_groups_dropped(self, interval_instance):
        groups = [list(interval_instance.jobs), []]
        s = BusyTimeSchedule.from_bundle_jobs(interval_instance, 5, groups)
        assert s.num_machines == 1

    def test_default_starts_from_releases(self, interval_instance):
        s = BusyTimeSchedule.from_bundle_jobs(
            interval_instance, 5, [list(interval_instance.jobs)]
        )
        for j in interval_instance.jobs:
            assert s.starts[j.id] == j.release


class TestVerification:
    def test_valid_schedule(self, interval_instance):
        s = BusyTimeSchedule.from_bundle_jobs(
            interval_instance, 3, [list(interval_instance.jobs)]
        )
        s.verify()
        s.verify()

    def test_missing_job(self, interval_instance):
        s = BusyTimeSchedule.from_bundle_jobs(
            interval_instance, 3, [list(interval_instance.jobs[:-1])]
        )
        with pytest.raises(BusyVerificationError, match="never scheduled"):
            s.verify()

    def test_duplicated_job(self, interval_instance):
        jobs = list(interval_instance.jobs)
        s = BusyTimeSchedule.from_bundle_jobs(
            interval_instance, 3, [jobs, [jobs[0]]]
        )
        with pytest.raises(BusyVerificationError, match="appears in bundles"):
            s.verify()

    def test_capacity_violation(self, clique_instance):
        s = BusyTimeSchedule.from_bundle_jobs(
            clique_instance, 2, [list(clique_instance.jobs)]
        )
        with pytest.raises(BusyVerificationError, match="simultaneous"):
            s.verify()

    def test_length_mutation(self, interval_instance):
        pinned = [
            Job(j.release, j.release + j.length / 2, j.length / 2, id=j.id)
            for j in interval_instance.jobs
        ]
        s = BusyTimeSchedule.from_bundle_jobs(interval_instance, 3, [pinned])
        with pytest.raises(BusyVerificationError, match="length"):
            s.verify()

    def test_outside_window(self):
        inst = Instance.from_tuples([(0, 4, 2)])
        pinned = [Job(3, 5, 2, id=0)]
        s = BusyTimeSchedule.from_bundle_jobs(inst, 1, [pinned])
        with pytest.raises(BusyVerificationError, match="outside window"):
            s.verify()

    def test_unpinned_flexible_job(self):
        inst = Instance.from_tuples([(0, 4, 2)])
        s = BusyTimeSchedule.from_bundle_jobs(inst, 1, [[inst.jobs[0]]])
        with pytest.raises(BusyVerificationError, match="not pinned"):
            s.verify()
