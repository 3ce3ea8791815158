"""E-BACKENDS — solver-backend routing: latency and parity across backends.

The backend-neutral solver layer must not regress the hot path: the
``scipy-highs`` backend is the production default, and ``reference`` (the
dependency-free dense simplex) exists for tiny instances and CI
cross-checks.  This bench measures per-solve latency of both on the
``LP1`` relaxation and the exact MILP across instance sizes, so BENCH
trajectories catch routing regressions (e.g. an IR translation step
suddenly dominating solve time), and asserts objective parity — the
correctness claim behind capability routing.
"""

from __future__ import annotations

import time

import numpy as np

from repro.instances import random_active_time_instance
from repro.lp import solve_active_time_exact, solve_active_time_lp
from repro.lp.model import build_active_time_model
from repro.solvers import available_backend_names, solve_ir

#: (n jobs, horizon T, capacity g) — sized for the dense reference backend.
LP_SIZES = [(4, 6, 2), (8, 10, 3), (12, 14, 3), (16, 18, 4)]
MILP_SIZES = [(4, 6, 2), (6, 8, 3), (8, 10, 3)]


def _feasible_instance(n, T, g, rng):
    for _ in range(50):
        inst = random_active_time_instance(n, T, rng=rng)
        try:
            solve_active_time_lp(inst, g)
        except RuntimeError:
            continue
        return inst
    raise RuntimeError(f"no feasible instance found for n={n}, T={T}, g={g}")


def _time_solve(fn, repeats=3):
    best = np.inf
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_lp_latency_and_parity_across_backends(rng, emit):
    backends = available_backend_names()
    rows = []
    for n, T, g in LP_SIZES:
        inst = _feasible_instance(n, T, g, rng)
        model = build_active_time_model(inst, g)
        timings = {}
        objectives = {}
        for backend in backends:
            sec, result = _time_solve(
                lambda b=backend: solve_ir(
                    model.to_linear_program(), backend=b
                )
            )
            timings[backend] = sec
            objectives[backend] = result.objective
        spread = max(objectives.values()) - min(objectives.values())
        assert spread <= 1e-6, objectives
        rows.append(
            [
                f"n={n}, T={T}, g={g}",
                model.num_vars,
                *(f"{timings[b] * 1e3:.2f}" for b in backends),
                f"{timings['reference'] / timings['scipy-highs']:.1f}x",
            ]
        )
    emit(
        "E-BACKENDS / LP1 per-solve latency (ms, best of 3)",
        ["family", "vars", *backends, "ref/scipy"],
        rows,
    )


def test_milp_latency_and_parity_across_backends(rng, emit):
    backends = available_backend_names()
    rows = []
    for n, T, g in MILP_SIZES:
        inst = _feasible_instance(n, T, g, rng)
        timings = {}
        objectives = {}
        for backend in backends:
            sec, result = _time_solve(
                lambda b=backend: solve_active_time_exact(inst, g, backend=b)
            )
            timings[backend] = sec
            objectives[backend] = result.objective
        spread = max(objectives.values()) - min(objectives.values())
        assert spread <= 1e-6, objectives
        rows.append(
            [
                f"n={n}, T={T}, g={g}",
                *(f"{timings[b] * 1e3:.2f}" for b in backends),
            ]
        )
    emit(
        "E-BACKENDS / exact MILP per-solve latency (ms, best of 3)",
        ["family", *backends],
        rows,
    )

