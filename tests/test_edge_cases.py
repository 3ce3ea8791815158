"""Edge cases and boundary behaviour across the library."""

import pytest

from repro.core import TIME_EPS, Instance, Job


class TestDegenerateInstances:
    def test_single_slot_horizon(self):
        from repro.activetime import exact_active_time, round_active_time

        inst = Instance.from_tuples([(0, 1, 1)])
        assert exact_active_time(inst, 1).cost == 1
        sol = round_active_time(inst, 1, strict=True)
        assert sol.cost == 1

    def test_job_spanning_whole_horizon(self):
        from repro.activetime import exact_active_time

        inst = Instance.from_tuples([(0, 5, 5), (0, 5, 1)])
        s = exact_active_time(inst, 2)
        assert s.cost == 5  # rigid job forces every slot

    def test_all_jobs_identical(self):
        from repro.busytime import greedy_tracking

        inst = Instance.from_intervals([(1.0, 2.0)] * 7)
        s = greedy_tracking(inst, 3)
        s.verify()
        assert s.num_machines == 3  # ceil(7/3)
        assert s.total_busy_time == pytest.approx(3.0)

    def test_one_job_everything(self):
        from repro.busytime import (
            chain_peeling_two_approx,
            first_fit,
            greedy_tracking,
            kumar_rudra,
        )

        inst = Instance.from_intervals([(0.0, 2.5)])
        for fn in (first_fit, greedy_tracking, chain_peeling_two_approx,
                   kumar_rudra):
            s = fn(inst, 1)
            assert s.total_busy_time == pytest.approx(2.5)
            assert s.num_machines == 1

    def test_g_larger_than_n(self):
        from repro.busytime import greedy_tracking

        inst = Instance.from_intervals([(0, 1), (0.5, 2), (1.5, 3)])
        s = greedy_tracking(inst, 50)
        assert s.num_machines == 1


class TestNumericalBoundaries:
    def test_touching_windows_share_no_time(self):
        a = Job(0, 1, 1, id=0)
        b = Job(1, 2, 1, id=1)
        from oracles import is_track

        assert is_track([a, b])

    def test_eps_length_jobs(self):
        from repro.busytime import compute_demand_profile

        eps = 1e-4  # far above TIME_EPS, far below 1
        inst = Instance.from_intervals([(0, eps), (eps / 2, eps)])
        profile = compute_demand_profile(inst, 1)
        assert profile.cost == pytest.approx(2 * eps - eps / 2, abs=1e-9)

    def test_near_integral_values_snap(self):
        from repro.activetime import snap

        assert snap(3.0000004) == 3.0
        assert snap(2.51) == 2.51

    def test_job_length_exactly_window(self):
        j = Job(1.5, 3.5, 2.0)
        assert j.is_interval
        assert j.slack == pytest.approx(0.0)


class TestLargeCapacity:
    def test_active_time_huge_g_is_chain_bound(self):
        from repro.activetime import exact_active_time

        # with effectively unlimited capacity the optimum is driven by the
        # tightest window structure, not by mass
        inst = Instance.from_tuples([(0, 3, 2)] * 10)
        s = exact_active_time(inst, 100)
        assert s.cost == 2

    def test_busy_time_g1_equals_coloring(self):
        from repro.busytime import exact_busy_time_interval

        # g = 1: busy time = total length regardless of grouping
        inst = Instance.from_intervals([(0, 2), (1, 3), (2, 4)])
        s = exact_busy_time_interval(inst, 1)
        assert s.total_busy_time == pytest.approx(6.0)


class TestChargingEdges:
    def test_half_exactly_at_boundary(self):
        from repro.activetime import ChargingLedger

        ledger = ChargingLedger()
        ledger.register_half(1, 0.5)  # exactly 1/2 is a legal half slot
        ledger.verify()

    def test_trio_boundary(self):
        from repro.activetime import ChargingLedger

        ledger = ChargingLedger()
        ledger.register_full(1)
        ledger.charge_barely(2, 0.25)
        rec = ledger.charge_barely(3, 0.25)  # 0.25 + 0.25 == 0.5 exactly
        assert rec.kind == "trio"

    def test_filler_boundary(self):
        from repro.activetime import ChargingLedger

        ledger = ChargingLedger()
        ledger.register_half(1, 0.5)
        rec = ledger.charge_barely(2, 0.5 - 1e-12)
        assert rec.kind == "filler"


class TestRoundingDegenerates:
    def test_all_jobs_same_deadline(self):
        from repro.activetime import round_active_time

        inst = Instance.from_tuples([(0, 4, 2), (1, 4, 1), (2, 4, 2)])
        sol = round_active_time(inst, 2, strict=True)
        sol.schedule.verify()
        assert len(sol.iterations) == 1

    def test_every_slot_distinct_deadline(self):
        from repro.activetime import round_active_time

        inst = Instance.from_tuples([(i, i + 1, 1) for i in range(6)])
        sol = round_active_time(inst, 2, strict=True)
        assert sol.cost == 6  # rigid unit chain: every slot forced

    def test_g_one(self):
        from repro.activetime import exact_active_time, round_active_time

        inst = Instance.from_tuples([(0, 6, 2), (0, 6, 2), (0, 6, 2)])
        sol = round_active_time(inst, 1, strict=True)
        assert sol.cost == exact_active_time(inst, 1).cost == 6


class TestPreemptiveEdges:
    def test_zero_slack_jobs_only(self):
        from repro.busytime import greedy_unbounded_preemptive

        inst = Instance.from_tuples([(0, 2, 2), (1, 4, 3)])
        s = greedy_unbounded_preemptive(inst)
        s.verify()
        assert s.total_busy_time == pytest.approx(4.0)

    def test_single_piece_when_contiguous(self):
        from repro.busytime import greedy_unbounded_preemptive

        inst = Instance.from_tuples([(0, 3, 3)])
        s = greedy_unbounded_preemptive(inst)
        assert len(s.pieces) == 1


class TestVerifierTolerance:
    def test_busy_schedule_tolerates_float_noise(self):
        from repro.busytime import BusyTimeSchedule

        inst = Instance.from_intervals([(0.0, 1.0)])
        jittered = Job(0.0 + TIME_EPS / 10, 1.0 + TIME_EPS / 10,
                       1.0, id=0)
        s = BusyTimeSchedule.from_bundle_jobs(inst, 1, [[jittered]])
        s.verify()  # sub-tolerance jitter is accepted
