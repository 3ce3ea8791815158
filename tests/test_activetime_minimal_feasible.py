"""Tests for the Theorem-1 minimal-feasible 3-approximation."""

import numpy as np
import pytest

from repro.activetime import (
    close_slots_greedily,
    exact_active_time,
    minimal_feasible_schedule,
)
from repro.core import Instance
from repro.flow import is_feasible_slot_set
from repro.instances import (
    figure3,
    random_active_time_instance,
    random_unit_instance,
    tight_window_instance,
)

#: Small active-time families, each drawn for a capacity ``g``: random
#: windows, wide windows, rigid jobs (no slack), unit jobs, and groups of
#: up to ``g + 1`` unit jobs squeezed into 2-slot windows.
FAMILIES = {
    "random": lambda rng, g: random_active_time_instance(6, 8, rng=rng),
    "wide": lambda rng, g: random_active_time_instance(
        6, 10, min_slack=3, max_slack=8, rng=rng
    ),
    "rigid": lambda rng, g: random_active_time_instance(
        6, 8, max_slack=0, rng=rng
    ),
    "unit": lambda rng, g: random_unit_instance(9, 8, rng=rng),
    "tight": lambda rng, g: tight_window_instance(8, g, rng=rng),
}


def replay_left_to_right(instance, g, start_slots):
    """Close the slots of ``start_slots`` in increasing order, each one
    whose removal leaves a fresh flow network feasible."""
    active = set(start_slots)
    for t in sorted(start_slots):
        if is_feasible_slot_set(instance, g, active - {t}):
            active.discard(t)
    return sorted(active)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_draws(request):
    """Five feasible draws of one family, each with its capacity."""
    rng = np.random.default_rng(20140623)
    draws = []
    while len(draws) < 5:
        g = int(rng.integers(1, 4))
        inst = FAMILIES[request.param](rng, g)
        if is_feasible_slot_set(inst, g, range(1, inst.horizon + 1)):
            draws.append((inst, g))
    return draws


class TestBasics:
    def test_result_is_feasible(self, tiny_instance):
        s = minimal_feasible_schedule(tiny_instance, 2)
        s.verify()

    def test_empty_instance(self):
        s = minimal_feasible_schedule(Instance(tuple()), 1)
        assert s.cost == 0

    def test_infeasible_instance_raises(self):
        inst = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        with pytest.raises(ValueError):
            minimal_feasible_schedule(inst, 1)

    def test_explicit_start_slots(self, tiny_instance):
        slots = close_slots_greedily(tiny_instance, 2, range(1, 7))
        assert is_feasible_slot_set(tiny_instance, 2, slots)
        assert slots == list(
            minimal_feasible_schedule(tiny_instance, 2).active_slots
        )

    def test_infeasible_start_slots_raise(self, tiny_instance):
        with pytest.raises(ValueError):
            close_slots_greedily(tiny_instance, 2, [1])


class TestMinimality:
    """Definition 4 on every family, each solution checked with a fresh
    flow network rather than the greedy's own."""

    def test_no_slot_closable(self, family_draws):
        """Closing any single active slot breaks feasibility."""
        for inst, g in family_draws:
            active = set(minimal_feasible_schedule(inst, g).active_slots)
            for t in active:
                assert not is_feasible_slot_set(inst, g, active - {t})

    def test_closes_left_to_right(self, family_draws):
        for inst, g in family_draws:
            s = minimal_feasible_schedule(inst, g)
            s.verify()
            assert list(s.active_slots) == replay_left_to_right(
                inst, g, range(1, inst.horizon + 1)
            )

    def test_closing_a_feasible_superset(self, family_draws):
        """From an optimum plus random extra slots, the greedy closes to a
        minimal subset of its start, in the left-to-right replay's way."""
        rng = np.random.default_rng(7)
        for inst, g in family_draws:
            opt = exact_active_time(inst, g).active_slots
            start = set(opt) | {
                t for t in range(1, inst.horizon + 1) if rng.random() < 0.5
            }
            slots = close_slots_greedily(inst, g, start)
            assert slots == replay_left_to_right(inst, g, start)
            assert set(slots) <= start
            for t in slots:
                assert not is_feasible_slot_set(inst, g, set(slots) - {t})


class TestApproximationGuarantee:
    def test_within_3_opt(self, family_draws):
        for inst, g in family_draws:
            opt = exact_active_time(inst, g).cost
            assert minimal_feasible_schedule(inst, g).cost <= 3 * opt

    def test_figure3_adversarial_slot_set(self):
        """The paper's Figure-3 witness: feasible at cost 3g-2 vs OPT g."""
        for g in (3, 4, 6):
            gad = figure3(g)
            slots = gad.witness["adversarial_slots"]
            assert len(slots) == 3 * g - 2
            assert is_feasible_slot_set(gad.instance, g, slots)
            exact = exact_active_time(gad.instance, g)
            assert exact.cost == g

    def test_figure3_ratio_approaches_3(self):
        ratios = []
        for g in (3, 5, 8):
            gad = figure3(g)
            ratios.append((3 * g - 2) / g)
        assert ratios == sorted(ratios)
        assert ratios[-1] > 2.7

    def test_greedy_keeps_figure3_witness(self):
        """Started from the 3g-2 witness, the greedy closes nothing; from
        every slot open, left-to-right closing finds OPT = g."""
        for g in (3, 4, 6):
            gad = figure3(g)
            slots = gad.witness["adversarial_slots"]
            assert close_slots_greedily(gad.instance, g, slots) == slots
            assert minimal_feasible_schedule(gad.instance, g).cost == g
