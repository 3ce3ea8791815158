"""Tests for the right-shifting preprocessing (Section 3.1, Lemma 3)."""

import pytest

from repro.activetime import right_shift, snap
from repro.instances import lp_gap, random_active_time_instance
from repro.lp import solve_active_time_lp


class TestSnap:
    def test_snap_near_integer(self):
        assert snap(0.9999999) == 1.0
        assert snap(2.0000001) == 2.0
        assert snap(1.4) == 1.4


class TestStructure:
    def _shift(self, inst, g):
        return right_shift(solve_active_time_lp(inst, g))

    def test_mass_preserved_per_block(self, rng):
        for _ in range(10):
            inst = random_active_time_instance(6, 9, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                lp = solve_active_time_lp(inst, g)
            except RuntimeError:
                continue
            shifted = right_shift(lp)
            for (a, b), mass in zip(shifted.blocks, shifted.masses):
                assert float(shifted.y[a : b + 1].sum()) == pytest.approx(
                    mass, abs=1e-6
                )

    def test_objective_preserved(self, rng):
        for _ in range(10):
            inst = random_active_time_instance(6, 9, rng=rng)
            try:
                lp = solve_active_time_lp(inst, 2)
            except RuntimeError:
                continue
            shifted = right_shift(lp)
            assert shifted.objective == pytest.approx(lp.objective, abs=1e-5)

    def test_observation_1_right_packed(self, rng):
        """Within a block, a positive slot is followed only by full slots."""
        for _ in range(10):
            inst = random_active_time_instance(6, 9, rng=rng)
            try:
                shifted = self._shift(inst, 2)
            except RuntimeError:
                continue
            for a, b in shifted.blocks:
                seen_positive = False
                for t in range(a, b + 1):
                    v = snap(shifted.y[t])
                    if seen_positive:
                        assert v >= 1.0
                    if v > 0.0:
                        seen_positive = True

    def test_at_most_one_fractional_slot_per_block(self, rng):
        for _ in range(10):
            inst = random_active_time_instance(6, 9, rng=rng)
            try:
                shifted = self._shift(inst, 2)
            except RuntimeError:
                continue
            for a, b in shifted.blocks:
                fractional = [
                    t
                    for t in range(a, b + 1)
                    if 0.0 < snap(shifted.y[t]) < 1.0
                ]
                assert len(fractional) <= 1

    def test_fully_open_slots_are_each_blocks_top_slots(self, rng):
        """Right packing: block ``i`` opens its top ``floor(Y_i)`` slots."""
        for _ in range(10):
            inst = random_active_time_instance(6, 9, rng=rng)
            try:
                shifted = self._shift(inst, int(rng.integers(1, 4)))
            except RuntimeError:
                continue
            expected = {
                b - k
                for (a, b), mass in zip(shifted.blocks, shifted.masses)
                for k in range(int(snap(mass)))
            }
            fully_open = [
                t for t in range(1, len(shifted.y)) if snap(shifted.y[t]) >= 1.0
            ]
            assert fully_open == sorted(expected)

    def test_fractional_slot_of_block(self):
        gad = lp_gap(3)
        shifted = self._shift(gad.instance, 3)
        # every pair-block carries mass 1 + 1/3: fractional slot of value 1/3
        for i in range(len(shifted.blocks)):
            frac = shifted.fractional_slot_of_block(i)
            assert frac is not None
            slot, value = frac
            assert value == pytest.approx(1 / 3, abs=1e-6)


class TestLemma3Feasibility:
    def test_shifted_solution_remains_fractionally_feasible(self, rng):
        count = 0
        for _ in range(12):
            inst = random_active_time_instance(6, 9, rng=rng)
            g = int(rng.integers(1, 4))
            try:
                shifted = right_shift(solve_active_time_lp(inst, g))
            except RuntimeError:
                continue
            assert shifted.is_feasible_fractional()
            count += 1
        assert count >= 5

    def test_gap_gadget_feasible_after_shift(self):
        for g in (2, 4):
            gad = lp_gap(g)
            shifted = right_shift(solve_active_time_lp(gad.instance, g))
            assert shifted.is_feasible_fractional()
