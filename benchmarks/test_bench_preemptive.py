"""E11/E12 — Theorems 6 and 7: preemptive busy time.

Paper claims: with unbounded g the greedy is *exact* (Theorem 6); for
bounded g, redistributing its output interval-by-interval costs at most
OPT_inf + ℓ(J)/g <= 2 OPT (Theorem 7).  Exactness is checked against an
independent LP reference; the Theorem-7 additive decomposition is measured
per instance.
"""

import pytest
from scipy.optimize import linprog

from repro.busytime import (
    greedy_unbounded_preemptive,
    mass_lower_bound,
    opt_infinity,
    preemptive_bounded,
)
from repro.instances import random_flexible_instance


def lp_reference(inst) -> float:
    """Independent optimum for preemptive unbounded busy time."""
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
    res = linprog(c=[1.0] * T, A_ub=a, b_ub=b, bounds=[(0, 1)] * T,
                  method="highs")
    assert res.status == 0
    return float(res.fun)


def test_theorem6_exactness(rng, emit):
    rows = []
    for (n, T) in [(6, 10), (12, 16), (20, 24)]:
        max_gap = 0.0
        for _ in range(8):
            inst = random_flexible_instance(n, T, rng=rng)
            greedy = greedy_unbounded_preemptive(inst)
            greedy.verify()
            ref = lp_reference(inst)
            max_gap = max(max_gap, abs(greedy.total_busy_time - ref))
        rows.append([f"n={n}, T={T}", max_gap])
        assert max_gap < 1e-6
    emit(
        "E11 / Theorem 6 — greedy vs LP optimum (paper: exact)",
        ["family", "max |greedy - OPT|"],
        rows,
    )


def test_theorem7_bound(rng, emit):
    rows = []
    for g in (2, 3, 4):
        worst = 0.0
        for _ in range(8):
            inst = random_flexible_instance(12, 16, rng=rng)
            unbounded = greedy_unbounded_preemptive(inst).total_busy_time
            bounded = preemptive_bounded(inst, g)
            bounded.verify()
            additive = unbounded + mass_lower_bound(inst, g)
            assert bounded.total_busy_time <= additive + 1e-6
            lower = max(unbounded, mass_lower_bound(inst, g))
            worst = max(worst, bounded.total_busy_time / lower)
        rows.append([g, worst, 2.0])
        assert worst <= 2.0 + 1e-9
    emit(
        "E12 / Theorem 7 — bounded-g preemptive: cost / max(lower bounds)",
        ["g", "max ratio", "paper bound"],
        rows,
    )


def test_preemption_value(rng, emit):
    """Preemptive OPT_inf <= non-preemptive OPT_inf, sometimes strictly."""
    strict = 0
    total = 0
    for _ in range(15):
        inst = random_flexible_instance(8, 12, rng=rng)
        pre = greedy_unbounded_preemptive(inst).total_busy_time
        non = opt_infinity(inst).busy_time
        assert pre <= non + 1e-6
        total += 1
        if pre < non - 1e-6:
            strict += 1
    emit(
        "E11 — value of preemption at g = inf",
        ["instances", "preemption strictly helps"],
        [[total, strict]],
    )


@pytest.mark.parametrize("n", [15, 40])
def test_preemptive_greedy_runtime(benchmark, rng, n):
    inst = random_flexible_instance(n, n + 8, rng=rng)
    s = benchmark(greedy_unbounded_preemptive, inst)
    s.verify()


@pytest.mark.parametrize("g", [2, 4])
def test_preemptive_bounded_runtime(benchmark, rng, g):
    inst = random_flexible_instance(20, 28, rng=rng)
    s = benchmark(preemptive_bounded, inst, g)
    s.verify()
