"""E18 (ablation) — anatomy of the LP-rounding algorithm.

Design-choice ablations for the Theorem-2 implementation:

* how often each proof mechanism fires (carry/proxy vs half-open vs
  dependent/trio/filler charges) across instance families;
* whether the feasibility probe ("try to close a barely open slot") earns
  its cost — we compare against an ablated variant that always opens the
  fractional slot (still 2-approximate by the same charging, but wasteful);
* the cost of strict invariant checking.
"""

from collections import Counter

import pytest

from repro.activetime import round_active_time
from repro.activetime.rightshift import right_shift, snap
from repro.instances import (
    lp_gap,
    random_active_time_instance,
    tight_window_instance,
)
from repro.lp import solve_active_time_lp


def test_mechanism_histogram(rng, emit):
    rows = []
    for label, factory in [
        ("random n=12", lambda: random_active_time_instance(12, 16, rng=rng)),
        ("tight windows", lambda: tight_window_instance(12, 3, rng=rng)),
        ("lp_gap g=3", lambda: lp_gap(3).instance),
    ]:
        actions = Counter()
        charges = Counter()
        for _ in range(8):
            inst = factory()
            try:
                sol = round_active_time(inst, 3, strict=True)
            except RuntimeError:
                continue
            for it in sol.iterations:
                actions[it.action] += 1
            for rec in sol.ledger.records:
                charges[rec.kind] += 1
        rows.append(
            [label, actions["none"], actions["half"], actions["carry"],
             actions["charged"], charges["dependent"], charges["trio"],
             charges["filler"]]
        )
    emit(
        "E18 — rounding mechanism usage (iterations by outcome)",
        ["family", "integral", "half", "carry(proxy)", "charged",
         "dependents", "trios", "fillers"],
        rows,
    )


def _rounding_without_probe(instance, g):
    """Ablation: always open ceil(Y_i) slots (skip the closing probe)."""
    lp = solve_active_time_lp(instance, g)
    shifted = right_shift(lp)
    opened: set[int] = set()
    proxy = 0.0
    for (a, b), mass in zip(shifted.blocks, shifted.masses):
        y_eff = snap(mass + proxy)
        proxy = 0.0
        whole = int(y_eff)
        frac = snap(y_eff - whole)
        for k in range(whole):
            if b - k >= a:
                opened.add(b - k)
        if frac > 0:
            cand = b - whole
            opened.add(cand if cand >= a else b)
    from repro.flow import ActiveTimeFeasibility

    oracle = ActiveTimeFeasibility(instance, g)
    if not oracle.is_feasible(opened):
        # the ablated variant can need repairs — count them as cost
        for t in range(1, instance.horizon + 1):
            if t not in opened:
                opened.add(t)
                if oracle.is_feasible(opened):
                    break
    return len(opened), lp.objective


def test_probe_ablation(rng, emit):
    """Does 'try to close' reduce cost vs always-open-ceil?"""
    better = worse = same = 0
    total_probe = total_ablated = 0.0
    for _ in range(15):
        inst = random_active_time_instance(10, 14, rng=rng)
        try:
            sol = round_active_time(inst, 3, strict=True)
        except RuntimeError:
            continue
        ablated_cost, lp_obj = _rounding_without_probe(inst, 3)
        total_probe += sol.cost
        total_ablated += ablated_cost
        if sol.cost < ablated_cost:
            better += 1
        elif sol.cost > ablated_cost:
            worse += 1
        else:
            same += 1
        # both stay 2-approximate
        assert sol.cost <= 2 * lp_obj + 1e-6
        assert ablated_cost <= 2 * lp_obj + 1 + 1e-6  # ceil slack
    emit(
        "E18 — probe ablation (full algorithm vs always-open-ceil)",
        ["probe better", "probe worse", "equal",
         "mean cost (probe)", "mean cost (ablated)"],
        [[better, worse, same,
          total_probe / max(1, better + worse + same),
          total_ablated / max(1, better + worse + same)]],
    )
    assert worse == 0  # closing only ever helps


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_strictness_runtime(benchmark, rng, strict):
    inst = random_active_time_instance(14, 18, rng=rng)
    try:
        sol = benchmark(round_active_time, inst, 3, strict=strict)
    except RuntimeError:
        pytest.skip("instance infeasible at g=3")
    sol.schedule.verify()
