"""E9 — Theorem 10 / Figures 10-12: extending the 2-approx to flexible jobs
is exactly 4-approximate.

Paper claims: converting flexible jobs via the span-minimizing placement and
then running a 2x-profile interval algorithm gives 4-approximation (Lemma 7
x Theorem 8), and the Figure-10 family shows runs paying 1 + 4(g-1) + O(eps)
against OPT = g + O(eps) — ratio -> 4.  GREEDYTRACKING breaks this barrier
with its factor 3 (the paper's headline).
"""

import pytest

from repro.busytime import schedule_flexible
from repro.instances import figure10


@pytest.mark.parametrize("g", [2, 3, 4])
def test_fig10_pipeline_comparison(g, emit):
    gad = figure10(g)
    opt_claim = gad.facts["opt_busy_time"]
    adv_claim = gad.facts["adversarial_cost"]

    rows = [["paper OPT (claim)", opt_claim, 1.0]]
    results = {}
    for name in ("chain_peeling", "kumar_rudra", "greedy_tracking"):
        s = schedule_flexible(
            gad.instance, g,
            starts=gad.witness["adversarial_starts"], algorithm=name,
        )
        s.verify()
        results[name] = s.total_busy_time
        rows.append(
            [f"{name} on adversarial placement", s.total_busy_time,
             s.total_busy_time / opt_claim]
        )
    rows.append(
        ["paper adversarial run (1+4(g-1))", adv_claim, adv_claim / opt_claim]
    )
    emit(
        f"E9 / Figure 10 — flexible 4-approx tightness, g={g}",
        ["pipeline", "busy time", "ratio vs OPT claim"],
        rows,
    )

    # Shape claims: every 2x-profile algorithm stays within the proven factor
    # 4, GREEDYTRACKING within 3; the paper's adversarial run cost dominates
    # the optimum and its ratio grows with g.
    assert results["chain_peeling"] <= 4 * opt_claim + 1e-6
    assert results["kumar_rudra"] <= 4 * opt_claim + 1e-6
    assert results["greedy_tracking"] <= 3 * opt_claim + 1e-6
    assert adv_claim / opt_claim <= 4.0


def test_paper_adversarial_ratio_grows_to_4():
    ratios = []
    for g in (2, 4, 8, 16):
        gad = figure10(g, eps=0.01, eps_prime=0.005)
        ratios.append(gad.facts["adversarial_cost"] / gad.facts["opt_busy_time"])
    assert ratios == sorted(ratios)
    assert ratios[-1] > 3.5


@pytest.mark.parametrize("g", [3])
def test_fig10_pipeline_runtime(benchmark, g):
    gad = figure10(g)
    s = benchmark(
        schedule_flexible,
        gad.instance,
        g,
        starts=gad.witness["adversarial_starts"],
        algorithm="chain_peeling",
    )
    s.verify()
