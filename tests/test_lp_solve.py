"""Unit tests for the LP relaxation solver (repro.lp.solve)."""

import pytest

from repro.core import Instance
from repro.instances import lp_gap, random_active_time_instance
from repro.lp import solve_active_time_exact, solve_active_time_lp


class TestOptimality:
    def test_lp_lower_bounds_ip(self, rng):
        for _ in range(10):
            inst = random_active_time_instance(6, 8, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                exact = solve_active_time_exact(inst, g)
            except RuntimeError:
                continue
            lp = solve_active_time_lp(inst, g)
            assert lp.objective <= exact.objective + 1e-6

    def test_lp_gap_gadget_value(self):
        for g in (2, 3, 5):
            gad = lp_gap(g)
            lp = solve_active_time_lp(gad.instance, g)
            assert lp.objective == pytest.approx(gad.facts["lp_opt"], abs=1e-6)

    def test_single_job(self):
        inst = Instance.from_tuples([(0, 4, 2)])
        lp = solve_active_time_lp(inst, 1)
        assert lp.objective == pytest.approx(2.0)

    def test_empty_instance(self):
        lp = solve_active_time_lp(Instance(tuple()), 1)
        assert lp.objective == 0.0

    def test_infeasible_raises(self):
        # 2 unit jobs in a single slot with g = 1
        inst = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        with pytest.raises(RuntimeError):
            solve_active_time_lp(inst, 1)


class TestSolutionStructure:
    def test_y_indexing_one_based(self, tiny_instance):
        lp = solve_active_time_lp(tiny_instance, 2)
        assert len(lp.y) == tiny_instance.horizon + 1
        assert lp.y[0] == 0.0

    def test_objective_equals_y_sum(self, tiny_instance):
        lp = solve_active_time_lp(tiny_instance, 2)
        assert lp.objective == pytest.approx(float(lp.y[1:].sum()), abs=1e-6)

    def test_x_within_windows(self, tiny_instance):
        lp = solve_active_time_lp(tiny_instance, 2)
        for (jid, t), v in lp.x.items():
            assert tiny_instance.job_by_id(jid).is_live_in_slot(t)
            assert -1e-9 <= v <= 1.0 + 1e-9

    def test_coverage_constraints_met(self, tiny_instance):
        lp = solve_active_time_lp(tiny_instance, 2)
        for job in tiny_instance.jobs:
            mass = sum(v for (jid, t), v in lp.x.items() if jid == job.id)
            assert mass >= job.length - 1e-6

    def test_slot_load_bounded(self, tiny_instance):
        lp = solve_active_time_lp(tiny_instance, 2)
        for t in range(1, tiny_instance.horizon + 1):
            load = sum(v for (_, s), v in lp.x.items() if s == t)
            assert load <= 2 * lp.y[t] + 1e-6

    def test_open_slots(self, tiny_instance):
        lp = solve_active_time_lp(tiny_instance, 2)
        opened = lp.open_slots()
        assert opened == sorted(opened)
        for t in opened:
            assert lp.y[t] > 0


class TestDeadlineBookkeeping:
    def test_distinct_deadlines(self, tiny_instance):
        lp = solve_active_time_lp(tiny_instance, 2)
        assert lp.distinct_deadlines() == [4, 5, 6]

    def test_blocks_partition_up_to_last_deadline(self, tiny_instance):
        lp = solve_active_time_lp(tiny_instance, 2)
        blocks = lp.deadline_blocks()
        assert blocks[-1][1] == 6
        for (a1, b1), (a2, b2) in zip(blocks, blocks[1:]):
            assert a2 == b1 + 1

    def test_block_masses_sum_to_objective(self, rng):
        for _ in range(8):
            inst = random_active_time_instance(5, 8, rng=rng)
            try:
                lp = solve_active_time_lp(inst, 2)
            except RuntimeError:
                continue
            assert sum(lp.block_masses()) == pytest.approx(
                lp.objective, abs=1e-6
            )

    def test_blocks_cover_all_open_slots(self, rng):
        for _ in range(8):
            inst = random_active_time_instance(5, 8, rng=rng)
            try:
                lp = solve_active_time_lp(inst, 2)
            except RuntimeError:
                continue
            blocks = lp.deadline_blocks()
            lo = blocks[0][0]
            for t in lp.open_slots():
                assert t >= lo
