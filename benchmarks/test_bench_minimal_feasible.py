"""E2 — Theorem 1 / Figure 3: minimal feasible solutions approach 3 OPT.

Paper claims: any minimal feasible solution costs <= 3 OPT (Theorem 1); the
Figure-3 gadget admits a minimal solution of cost 3g - 2 against OPT = g, so
the bound is asymptotically tight.  We regenerate the gadget for a sweep of
g, verify the adversarial slot set is feasible and minimal at cost 3g - 2,
show the library's greedy minimizer stops on it when started there, and
report what its left-to-right closing finds from every slot open.
"""

import pytest

from repro.activetime import (
    close_slots_greedily,
    exact_active_time,
    minimal_feasible_schedule,
)
from repro.flow import ActiveTimeFeasibility, is_feasible_slot_set
from repro.instances import SWEEP_GENERATORS, figure3


@pytest.mark.parametrize("g", [3, 4, 6, 8])
def test_fig3_ratio_trend(g, emit):
    gad = figure3(g)
    exact = exact_active_time(gad.instance, g)
    assert exact.cost == g

    slots = gad.witness["adversarial_slots"]
    assert is_feasible_slot_set(gad.instance, g, slots)
    adversarial = len(slots)
    assert adversarial == 3 * g - 2

    greedy = minimal_feasible_schedule(gad.instance, g)
    greedy.verify()
    assert greedy.cost <= 3 * exact.cost

    emit(
        f"E2 / Figure 3 — minimal feasible vs OPT, g={g}",
        ["quantity", "value", "ratio vs OPT"],
        [
            ["OPT (exact MILP)", exact.cost, 1.0],
            ["paper adversarial minimal (3g-2)", adversarial, adversarial / g],
            ["greedy minimal (left to right)", greedy.cost, greedy.cost / g],
            ["paper limit", "3g-2 -> 3·OPT", 3.0],
        ],
    )


def test_fig3_ratio_is_monotone_in_g():
    ratios = []
    for g in (3, 4, 6, 8, 12):
        gad = figure3(g)
        slots = gad.witness["adversarial_slots"]
        ratios.append(len(slots) / exact_active_time(gad.instance, g).cost)
    assert ratios == sorted(ratios)
    assert ratios[-1] > 2.8  # approaching 3


def test_greedy_reaches_adversarial_cost():
    """The worst case is a minimal solution: no slot of the witness can
    close, so the library's own minimizer started there keeps all 3g - 2."""
    for g in (3, 4, 6):
        gad = figure3(g)
        slots = gad.witness["adversarial_slots"]
        oracle = ActiveTimeFeasibility(gad.instance, g)
        assert oracle.is_feasible(slots)
        assert not any(oracle.is_feasible(set(slots) - {t}) for t in slots)
        assert close_slots_greedily(gad.instance, g, slots) == slots
        assert len(slots) == 3 * g - 2


@pytest.mark.parametrize("g", [3, 6])
def test_minimal_feasible_runtime(benchmark, g):
    gad = figure3(g)
    schedule = benchmark(minimal_feasible_schedule, gad.instance, g)
    schedule.verify()


@pytest.mark.parametrize(
    "gen, cost, max_probes, plain_probes",
    [("active", 113, 16, 121), ("tight", 42, 50, 79)],
)
def test_minimal_probe_count(gen, cost, max_probes, plain_probes, emit,
                             monkeypatch):
    """Closes that counting alone shows infeasible are never probed.

    Probing every close costs one probe per slot plus the starting check
    (``plain_probes``); the count is deterministic, so the ceiling cannot
    flake, and the cost pins that no decision changed.
    """
    probes = []
    is_feasible = ActiveTimeFeasibility.is_feasible

    def counting(oracle, *args, **kwargs):
        probes.append(args)
        return is_feasible(oracle, *args, **kwargs)

    monkeypatch.setattr(ActiveTimeFeasibility, "is_feasible", counting)
    instance = SWEEP_GENERATORS[gen](300, 120, 12, 77)
    schedule = minimal_feasible_schedule(instance, 12)
    emit(
        f"minimal feasible probes, generator {gen!r} (n=300, g=12, seed 77)",
        ["cost", "probes", "probing every close"],
        [[schedule.cost, len(probes), plain_probes]],
    )
    assert schedule.cost == cost
    assert len(probes) <= max_probes
