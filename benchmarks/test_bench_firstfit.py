"""E10 — FIRSTFIT (Flammini et al.): the 4-approximate baseline.

Paper context: FIRSTFIT is 4-approximate and instances exist where it pays
3 OPT (the lower-bound instance lives in [5], not in this paper, so we
report measured worst cases over random and structured families instead).
GREEDYTRACKING's improvement from 4 to 3 is the paper's motivation; the
measured comparison shows GT never losing to FF by more than the bound gap
and winning on adversarially structured inputs.
"""

import pytest

from repro.busytime import (
    best_lower_bound,
    exact_busy_time_interval,
    first_fit,
    greedy_tracking,
)
from repro.instances import random_interval_instance

from oracles import random_laminar_instance


def test_firstfit_vs_greedy_tracking_random(rng, emit):
    rows = []
    for (n, g) in [(12, 2), (20, 3), (30, 4)]:
        ff_worst = gt_worst = 0.0
        ff_wins = gt_wins = ties = 0
        for _ in range(15):
            inst = random_interval_instance(n, 1.5 * n, rng=rng)
            lb = best_lower_bound(inst, g)
            ff = first_fit(inst, g).total_busy_time
            gt = greedy_tracking(inst, g).total_busy_time
            ff_worst = max(ff_worst, ff / lb)
            gt_worst = max(gt_worst, gt / lb)
            if ff < gt - 1e-9:
                ff_wins += 1
            elif gt < ff - 1e-9:
                gt_wins += 1
            else:
                ties += 1
        rows.append(
            [f"n={n}, g={g}", ff_worst, gt_worst, ff_wins, gt_wins, ties]
        )
        assert ff_worst <= 4.0 + 1e-9   # Flammini et al. bound
        assert gt_worst <= 3.0 + 1e-9   # Theorem 5 bound
    emit(
        "E10 — FIRSTFIT vs GREEDYTRACKING (ratios vs profile bound)",
        ["family", "FF max ratio", "GT max ratio", "FF wins", "GT wins",
         "ties"],
        rows,
    )


def test_firstfit_worst_case_search(rng, emit):
    """Adversarial search: report the worst FIRSTFIT ratio found vs exact."""
    worst = (0.0, None)
    for _ in range(40):
        n = int(rng.integers(4, 8))
        g = int(rng.integers(2, 4))
        inst = random_interval_instance(n, 10.0, rng=rng)
        opt = exact_busy_time_interval(inst, g).total_busy_time
        ff = first_fit(inst, g).total_busy_time
        if ff / opt > worst[0]:
            worst = (ff / opt, (n, g))
    emit(
        "E10 — worst FIRSTFIT/OPT found by random search "
        "(paper cites a 3x family in [5])",
        ["worst ratio", "instance (n, g)", "paper upper bound"],
        [[worst[0], str(worst[1]), 4.0]],
    )
    assert worst[0] <= 4.0 + 1e-9


@pytest.mark.parametrize("n", [30, 80])
def test_firstfit_runtime(benchmark, rng, n):
    inst = random_interval_instance(n, 1.5 * n, rng=rng)
    s = benchmark(first_fit, inst, 3)
    s.verify()


def test_laminar_family(rng, emit):
    """Structured (laminar) instances: the regime Khandekar et al. solve
    exactly; both heuristics stay close to the profile bound there."""
    rows = []
    for depth in (2, 3):
        inst = random_laminar_instance(depth, 2, rng=rng)
        g = 2
        lb = best_lower_bound(inst, g)
        ff = first_fit(inst, g).total_busy_time
        gt = greedy_tracking(inst, g).total_busy_time
        rows.append([f"depth={depth}, n={inst.n}", lb, ff, gt])
        assert ff <= 4 * lb + 1e-6
        assert gt <= 3 * lb + 1e-6
    emit(
        "E10 — laminar instances",
        ["family", "profile LB", "FIRSTFIT", "GREEDYTRACKING"],
        rows,
    )
