"""Programmatic experiment registry.

Each entry regenerates one paper artefact and returns its table; the CLI's
``experiments`` command and :mod:`examples/reproduce_paper_figures` both
drive this registry.  The heavyweight runtime measurements stay in
``benchmarks/`` (pytest-benchmark); these functions only compute the
claimed-vs-measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .report import format_table

__all__ = ["Experiment", "EXPERIMENTS", "run_experiment", "run_all"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artefact."""

    key: str
    title: str
    runner: Callable[[], str]

    def run(self) -> str:
        """Execute and return the formatted table."""
        return self.runner()


def _e2_minimal_feasible() -> str:
    from ..activetime import exact_active_time
    from ..flow import is_feasible_slot_set
    from ..instances import figure3

    rows = []
    for g in (3, 4, 6, 8):
        gad = figure3(g)
        opt = exact_active_time(gad.instance, g).cost
        slots = gad.witness["adversarial_slots"]
        assert is_feasible_slot_set(gad.instance, g, slots)
        rows.append([g, opt, len(slots), round(len(slots) / opt, 4)])
    return format_table(
        "E2 / Fig 3 — minimal feasible vs OPT (ratio -> 3)",
        ["g", "OPT", "adversarial minimal", "ratio"],
        rows,
    )


def _e4_integrality_gap() -> str:
    from ..activetime import exact_active_time
    from ..instances import lp_gap
    from ..lp import solve_active_time_lp

    rows = []
    for g in (2, 4, 8, 16):
        gad = lp_gap(g)
        lp = solve_active_time_lp(gad.instance, g).objective
        ip = exact_active_time(gad.instance, g).cost
        rows.append([g, round(lp, 4), ip, round(ip / lp, 4)])
    return format_table(
        "E4 / §3.5 — LP integrality gap (-> 2)",
        ["g", "LP", "IP", "gap"],
        rows,
    )


def _e7_interval_two_approx() -> str:
    from ..busytime import (
        BusyTimeSchedule,
        chain_peeling_two_approx,
        exact_busy_time_interval,
    )
    from ..instances import figure8

    rows = []
    for eps in (0.4, 0.2, 0.1):
        gad = figure8(eps=eps, eps_prime=eps / 2)
        opt = exact_busy_time_interval(gad.instance, gad.g).total_busy_time
        groups = [
            [gad.instance.job_by_id(j) for j in b]
            for b in gad.witness["adversarial_bundles"]
        ]
        adv = BusyTimeSchedule.from_bundle_jobs(gad.instance, gad.g, groups)
        cp = chain_peeling_two_approx(gad.instance, gad.g)
        rows.append(
            [eps, round(opt, 4), round(adv.total_busy_time, 4),
             round(adv.total_busy_time / opt, 4),
             round(cp.total_busy_time, 4)]
        )
    return format_table(
        "E7 / Fig 8 — interval 2-approx tightness (-> 2)",
        ["eps", "OPT", "adversarial", "ratio", "chain peeling"],
        rows,
    )


def _e8_profile_doubling() -> str:
    from ..busytime import compute_demand_profile, pin_instance
    from ..instances import figure9

    rows = []
    for g in (2, 4, 8):
        gad = figure9(g, eps=0.001)
        adv = pin_instance(gad.instance, gad.witness["adversarial_starts"])
        opt = pin_instance(gad.instance, gad.witness["optimal_starts"])
        dp = compute_demand_profile(adv, g).cost
        op = compute_demand_profile(opt, g).cost
        rows.append([g, round(op, 4), round(dp, 4), round(dp / op, 4)])
    return format_table(
        "E8 / Fig 9 — DP profile doubling (-> 2)",
        ["g", "optimal profile", "DP profile", "ratio"],
        rows,
    )


def _e9_flexible_factor4() -> str:
    from ..instances import figure10

    rows = []
    for g in (2, 4, 8, 16):
        gad = figure10(g, eps=0.01, eps_prime=0.005)
        rows.append(
            [g, round(gad.facts["opt_busy_time"], 4),
             gad.facts["adversarial_cost"],
             round(gad.facts["adversarial_cost"]
                   / gad.facts["opt_busy_time"], 4)]
        )
    return format_table(
        "E9 / Fig 10 — flexible 4-approx tightness (-> 4)",
        ["g", "OPT", "adversarial run", "ratio"],
        rows,
    )


def _e11_preemptive_exactness() -> str:
    import numpy as np

    from ..busytime import greedy_unbounded_preemptive, opt_infinity
    from ..instances import random_flexible_instance

    rng = np.random.default_rng(2014)
    rows = []
    for n in (6, 12, 20):
        strict = 0
        for _ in range(6):
            inst = random_flexible_instance(n, n + 6, rng=rng)
            pre = greedy_unbounded_preemptive(inst).total_busy_time
            non = opt_infinity(inst).busy_time
            assert pre <= non + 1e-6
            if pre < non - 1e-6:
                strict += 1
        rows.append([n, 6, strict])
    return format_table(
        "E11 / Thm 6 — preemption at g=inf (exact; value vs non-preemptive)",
        ["n", "instances", "preemption strictly helps"],
        rows,
    )


EXPERIMENTS: dict[str, Experiment] = {
    e.key: e
    for e in [
        Experiment("E2", "minimal feasible tightness (Fig 3)", _e2_minimal_feasible),
        Experiment("E4", "LP integrality gap (§3.5)", _e4_integrality_gap),
        Experiment("E7", "interval 2-approx tightness (Fig 8)", _e7_interval_two_approx),
        Experiment("E8", "DP profile doubling (Fig 9)", _e8_profile_doubling),
        Experiment("E9", "flexible factor-4 family (Fig 10)", _e9_flexible_factor4),
        Experiment("E11", "preemptive exactness (Thm 6)", _e11_preemptive_exactness),
    ]
}


def run_experiment(key: str) -> str:
    """Run one registered experiment by key (raises ``KeyError``)."""
    return EXPERIMENTS[key].run()


def run_all() -> str:
    """Run every registered experiment, concatenating the tables."""
    return "\n\n".join(EXPERIMENTS[k].run() for k in sorted(EXPERIMENTS))
