"""Tests for preemptive busy time (Theorems 6 and 7)."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.busytime import (
    greedy_unbounded_preemptive,
    mass_lower_bound,
    preemptive_bounded,
)
from repro.core import Instance, merge_intervals
from repro.instances import random_flexible_instance


def preemptive_unbounded_opt_reference(inst: Instance) -> float:
    """Independent LP reference: min |O| s.t. each window holds p_j measure.

    With g unbounded all concurrent processing shares one machine, so the
    optimal preemptive busy time is the minimum measure of an open set O with
    ``|O ∩ [r_j, d_j)| >= p_j`` for every job — an LP over slot-opening
    variables for integral instances.
    """
    if inst.n == 0:
        return 0.0
    T = inst.horizon
    a, b = [], []
    for j in inst.jobs:
        row = [0.0] * T
        r, d = j.integral_window()
        for t in range(r, d):
            row[t] = -1.0
        a.append(row)
        b.append(-j.length)
    res = linprog(
        c=[1.0] * T, A_ub=a, b_ub=b, bounds=[(0, 1)] * T, method="highs"
    )
    assert res.status == 0
    return float(res.fun)


class TestGreedyUnbounded:
    def test_verifies(self, rng):
        for _ in range(10):
            inst = random_flexible_instance(7, 11, rng=rng)
            s = greedy_unbounded_preemptive(inst)
            s.verify()

    def test_exactness_against_lp(self, rng):
        """Theorem 6: the greedy is exact (checked against an independent LP)."""
        for _ in range(20):
            inst = random_flexible_instance(
                int(rng.integers(2, 9)), int(rng.integers(3, 12)), rng=rng
            )
            s = greedy_unbounded_preemptive(inst)
            assert s.total_busy_time == pytest.approx(
                preemptive_unbounded_opt_reference(inst), abs=1e-6
            )

    def test_single_machine_used(self, rng):
        inst = random_flexible_instance(6, 9, rng=rng)
        s = greedy_unbounded_preemptive(inst)
        assert s.machines in ([], [0])

    def test_empty(self):
        s = greedy_unbounded_preemptive(Instance(tuple()))
        assert s.total_busy_time == 0.0

    def test_rigid_job(self):
        inst = Instance.from_tuples([(0, 3, 3)])
        s = greedy_unbounded_preemptive(inst)
        assert s.total_busy_time == pytest.approx(3.0)

    def test_preemption_beats_nonpreemptive_sometimes(self):
        """Preemptive OPT_inf can be strictly below non-preemptive OPT_inf."""
        from repro.busytime import opt_infinity

        # J1 rigid [0,2); J2 rigid [3,5); J3 length 3 window [0,5): the
        # non-preemptive J3 must add at least 1 new unit; preemptive J3 can
        # split across [0,2) + [3,5) fully? it needs 3 <= 4 available: yes.
        inst = Instance.from_tuples([(0, 2, 2), (3, 5, 2), (0, 5, 3)])
        pre = greedy_unbounded_preemptive(inst).total_busy_time
        non = opt_infinity(inst).busy_time
        assert pre < non - 1e-9

    def test_pieces_within_windows(self, rng):
        for _ in range(8):
            inst = random_flexible_instance(6, 10, rng=rng)
            s = greedy_unbounded_preemptive(inst)
            for p in s.pieces:
                job = inst.job_by_id(p.job_id)
                assert p.start >= job.release - 1e-9
                assert p.end <= job.deadline + 1e-9


class TestPreemptiveBounded:
    def test_verifies(self, rng):
        for _ in range(10):
            inst = random_flexible_instance(7, 11, rng=rng)
            g = int(rng.integers(1, 4))
            s = preemptive_bounded(inst, g)
            s.verify()

    def test_theorem7_bound(self, rng):
        """busy <= OPT_inf(preemptive) + mass/g <= 2 OPT(preemptive, g)."""
        for _ in range(15):
            inst = random_flexible_instance(7, 11, rng=rng)
            g = int(rng.integers(1, 4))
            unbounded = greedy_unbounded_preemptive(inst).total_busy_time
            s = preemptive_bounded(inst, g)
            assert (
                s.total_busy_time
                <= unbounded + mass_lower_bound(inst, g) + 1e-6
            )
            # both quantities lower-bound the bounded preemptive optimum
            lower = max(unbounded, mass_lower_bound(inst, g))
            assert s.total_busy_time <= 2 * lower + 1e-6

    def test_capacity_respected(self, rng):
        for _ in range(8):
            inst = random_flexible_instance(8, 10, rng=rng)
            g = int(rng.integers(1, 3))
            s = preemptive_bounded(inst, g)
            s.verify()  # includes the per-machine capacity check

    def test_busy_intervals_merge_each_machines_pieces(self, rng):
        inst = random_flexible_instance(8, 12, rng=rng)
        s = preemptive_bounded(inst, 2)
        total = 0.0
        for m in s.machines:
            busy = merge_intervals(
                piece.interval for piece in s.pieces if piece.machine == m
            )
            for (_, b), (a, _) in zip(busy, busy[1:]):
                assert b < a  # disjoint, sorted, touching runs merged
            for p in s.pieces:
                if p.machine == m:
                    assert any(
                        a <= p.start and p.end <= b for a, b in busy
                    )
            total += sum(b - a for a, b in busy)
        assert total == pytest.approx(s.total_busy_time)

    def test_large_g_matches_unbounded(self, rng):
        inst = random_flexible_instance(6, 9, rng=rng)
        s = preemptive_bounded(inst, inst.n)
        unbounded = greedy_unbounded_preemptive(inst)
        assert s.total_busy_time == pytest.approx(
            unbounded.total_busy_time, abs=1e-6
        )

    def test_empty(self):
        assert preemptive_bounded(Instance(tuple()), 2).total_busy_time == 0.0
