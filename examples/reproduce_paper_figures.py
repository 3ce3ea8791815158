#!/usr/bin/env python3
"""Regenerate every figure/tightness construction in the paper, standalone.

A compact version of the ``benchmarks/`` harness: for each paper artefact it
builds the gadget, computes the claimed quantities with the library's own
solvers and prints claimed-vs-measured.  (The full harness with runtime
measurements lives in ``benchmarks/``.)

Run:  python examples/reproduce_paper_figures.py
"""

from repro.activetime import exact_active_time, round_active_time
from repro.analysis import format_table
from repro.busytime import (
    chain_peeling_two_approx,
    compute_demand_profile,
    exact_busy_time_interval,
    pin_instance,
    schedule_flexible,
)
from repro.flow import is_feasible_slot_set
from repro.instances import (
    figure1,
    figure3,
    figure6,
    figure8,
    figure9,
    figure10,
    lp_gap,
)
from repro.lp import solve_active_time_lp


def main() -> None:
    # Figure 1 -----------------------------------------------------------
    gad = figure1()
    opt = exact_busy_time_interval(gad.instance, gad.g)
    print(
        format_table(
            "Figure 1 — introductory packing (g=3)",
            ["quantity", "paper", "measured"],
            [["optimal busy time", gad.facts["opt_busy_time"],
              opt.total_busy_time]],
        ),
        "\n",
    )

    # Figure 3 -----------------------------------------------------------
    rows = []
    for g in (3, 4, 6, 8):
        gad = figure3(g)
        exact = exact_active_time(gad.instance, g).cost
        adv = len(gad.witness["adversarial_slots"])
        assert is_feasible_slot_set(
            gad.instance, g, gad.witness["adversarial_slots"]
        )
        rows.append([g, exact, adv, f"{adv / exact:.3f}"])
    print(
        format_table(
            "Figure 3 — minimal feasible vs OPT (paper: (3g-2)/g -> 3)",
            ["g", "OPT", "adversarial minimal", "ratio"],
            rows,
        ),
        "\n",
    )

    # Section 3.5 --------------------------------------------------------
    rows = []
    for g in (2, 4, 8, 16):
        gad = lp_gap(g)
        lp = solve_active_time_lp(gad.instance, g).objective
        ip = exact_active_time(gad.instance, g).cost
        rounded = round_active_time(gad.instance, g).cost
        rows.append([g, f"{lp:.2f}", ip, rounded, f"{ip / lp:.3f}"])
    print(
        format_table(
            "Section 3.5 — LP integrality gap (paper: 2g/(g+1) -> 2)",
            ["g", "LP", "IP", "rounded", "gap"],
            rows,
        ),
        "\n",
    )

    # Figures 6/7 --------------------------------------------------------
    rows = []
    for g in (2, 3, 4):
        gad = figure6(g, eps=0.1)
        optimal = schedule_flexible(
            gad.instance, g, starts=gad.witness["optimal_starts"]
        ).total_busy_time
        adversarial = schedule_flexible(
            gad.instance, g, starts=gad.witness["adversarial_starts"]
        ).total_busy_time
        rows.append(
            [g, gad.facts["opt_busy_time"], f"{optimal:.2f}",
             f"{adversarial:.2f}", 6 * g]
        )
    print(
        format_table(
            "Figures 6/7 — GREEDYTRACKING gadget "
            "(paper: adversarial -> (6-o(eps))g, ratio -> 3)",
            ["g", "paper OPT", "GT@optimal placement",
             "GT@adversarial placement", "paper adversarial limit"],
            rows,
        ),
        "\n",
    )

    # Figure 8 -----------------------------------------------------------
    rows = []
    for eps in (0.4, 0.2, 0.1):
        gad = figure8(eps=eps, eps_prime=eps / 2)
        opt = exact_busy_time_interval(gad.instance, gad.g).total_busy_time
        cp = chain_peeling_two_approx(gad.instance, gad.g).total_busy_time
        rows.append(
            [eps, f"{opt:.2f}", gad.facts["adversarial_cost"],
             f"{gad.facts['adversarial_cost'] / opt:.3f}", f"{cp:.2f}"]
        )
    print(
        format_table(
            "Figure 8 — interval 2-approx tightness (paper: ratio -> 2)",
            ["eps", "OPT", "paper adversarial", "ratio", "chain peeling"],
            rows,
        ),
        "\n",
    )

    # Figure 9 -----------------------------------------------------------
    rows = []
    for g in (2, 4, 8):
        gad = figure9(g, eps=0.001)
        adv = pin_instance(gad.instance, gad.witness["adversarial_starts"])
        optp = pin_instance(gad.instance, gad.witness["optimal_starts"])
        dp = compute_demand_profile(adv, g).cost
        op = compute_demand_profile(optp, g).cost
        rows.append([g, f"{op:.3f}", f"{dp:.3f}", f"{dp / op:.3f}"])
    print(
        format_table(
            "Figure 9 — DP profile vs optimal profile (paper: -> 2)",
            ["g", "optimal profile", "DP profile", "ratio"],
            rows,
        ),
        "\n",
    )

    # Figures 10-12 ------------------------------------------------------
    rows = []
    for g in (2, 3, 4):
        gad = figure10(g)
        cp = schedule_flexible(
            gad.instance, g, starts=gad.witness["adversarial_starts"],
            algorithm="chain_peeling",
        ).total_busy_time
        gt = schedule_flexible(
            gad.instance, g, starts=gad.witness["adversarial_starts"],
            algorithm="greedy_tracking",
        ).total_busy_time
        rows.append(
            [g, f"{gad.facts['opt_busy_time']:.2f}",
             gad.facts["adversarial_cost"],
             f"{gad.facts['adversarial_cost'] / gad.facts['opt_busy_time']:.3f}",
             f"{cp:.2f}", f"{gt:.2f}"]
        )
    print(
        format_table(
            "Figures 10-12 — flexible 4-approx tightness "
            "(paper: adversarial ratio -> 4; GREEDYTRACKING stays <= 3)",
            ["g", "paper OPT", "paper adversarial", "ratio",
             "chain peeling", "greedy tracking"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
