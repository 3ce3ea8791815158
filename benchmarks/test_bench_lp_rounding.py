"""E3 — Theorem 2: the LP-rounding algorithm is 2-approximate.

Paper claim: rounded cost <= 2 x LP optimum (hence <= 2 OPT), with the
dependent/trio/filler charging certifying the bound.  We measure empirical
ratios on random active-time families and on the barely-open stress family,
and benchmark the full pipeline runtime.
"""

import pytest

from repro.activetime import exact_active_time, round_active_time
from repro.analysis import RatioSample, summarize
from repro.instances import (
    random_active_time_instance,
    tight_window_instance,
)


def test_rounding_ratio_random_families(rng, emit):
    rows = []
    for (n, T, g) in [(8, 12, 2), (12, 16, 3), (16, 20, 4)]:
        vs_lp, vs_opt = [], []
        for _ in range(12):
            inst = random_active_time_instance(n, T, rng=rng)
            try:
                sol = round_active_time(inst, g, strict=True)
            except RuntimeError:
                continue
            sol.schedule.verify()
            vs_lp.append((sol.cost, sol.lp_objective))
            if n <= 12:
                opt = exact_active_time(inst, g).cost
                vs_opt.append((sol.cost, opt))
        lp_summary = summarize(
            [RatioSample(f"n={n},g={g}", c, lp) for c, lp in vs_lp]
        )
        assert lp_summary.worst <= 2.0 + 1e-9
        rows.append(
            [f"n={n}, T={T}, g={g}", lp_summary.mean, lp_summary.worst, 2.0]
        )
    emit(
        "E3 / Theorem 2 — LP rounding: cost / LP optimum",
        ["family", "mean ratio", "max ratio", "paper bound"],
        rows,
    )


def test_rounding_stress_family(rng, emit):
    rows = []
    for g in (2, 3, 4):
        inst = tight_window_instance(6 * g, g, rng=rng)
        sol = round_active_time(inst, g, strict=True)
        sol.schedule.verify()
        rows.append([f"g={g}", sol.cost, sol.lp_objective, sol.ratio_vs_lp])
        assert sol.guarantee_holds
        assert sol.charging_failures == []
    emit(
        "E3 — barely-open stress family (Section 3.5 style windows)",
        ["g", "rounded", "LP opt", "ratio"],
        rows,
    )


@pytest.mark.parametrize("n,T", [(10, 14), (20, 24)])
def test_rounding_runtime(benchmark, rng, n, T):
    inst = random_active_time_instance(n, T, rng=rng)
    try:
        result = benchmark(round_active_time, inst, 3)
    except RuntimeError:
        pytest.skip("random instance infeasible at g=3")
    result.schedule.verify()
