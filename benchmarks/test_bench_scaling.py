"""E17 (engineering) — scaling study: runtime vs instance size.

Not a paper claim, but the repository's own performance envelope: every
algorithm's wall-clock growth on uniform random families, so regressions are
visible and users know what sizes are comfortable.  pytest-benchmark records
the distributions; the shape assertions only require successful completion
at the largest size.

The complexity contract is the exception: it times a doubling series at fixed
job density (generator ``interval``, horizon = n) and fails when the fitted
log-log exponent exceeds :data:`MAX_EXPONENT`, so a quadratic regression in
Kumar–Rudra or the demand profile turns the suite red.
"""

import gc
import math
import time

import pytest

from repro.activetime import minimal_feasible_schedule, round_active_time
from repro.busytime import (
    chain_peeling_two_approx,
    compute_demand_profile,
    first_fit,
    greedy_tracking,
    greedy_unbounded_preemptive,
    kumar_rudra,
)
from repro.instances import (
    SWEEP_GENERATORS,
    random_active_time_instance,
    random_flexible_instance,
    random_interval_instance,
)

INTERVAL_SIZES = [25, 100, 400]
ACTIVE_SIZES = [10, 25, 50]


@pytest.mark.parametrize("n", INTERVAL_SIZES)
@pytest.mark.parametrize(
    "algo",
    [first_fit, greedy_tracking, chain_peeling_two_approx, kumar_rudra],
    ids=lambda f: f.__name__,
)
def test_interval_algorithm_scaling(benchmark, rng, algo, n):
    inst = random_interval_instance(n, 1.5 * n, rng=rng)
    s = benchmark(algo, inst, 4)
    assert s.total_busy_time > 0


@pytest.mark.parametrize("n", ACTIVE_SIZES)
def test_rounding_scaling(benchmark, rng, n):
    inst = random_active_time_instance(n, n + 12, max_slack=6, rng=rng)
    try:
        sol = benchmark(round_active_time, inst, 3)
    except RuntimeError:
        pytest.skip("instance infeasible at g=3")
    sol.schedule.verify()


@pytest.mark.parametrize("n", ACTIVE_SIZES)
def test_minimal_feasible_scaling(benchmark, rng, n):
    inst = random_active_time_instance(n, n + 12, max_slack=6, rng=rng)
    try:
        s = benchmark(minimal_feasible_schedule, inst, 3)
    except ValueError:
        pytest.skip("instance infeasible at g=3")
    s.verify()


@pytest.mark.parametrize("n", [25, 100])
def test_preemptive_scaling(benchmark, rng, n):
    inst = random_flexible_instance(n, n + 10, rng=rng)
    s = benchmark(greedy_unbounded_preemptive, inst)
    s.verify()


DOUBLING = [100, 200, 400, 800]
MAX_EXPONENT = 1.5


def _best_of_three(fn, instances) -> list[float]:
    """CPU seconds per call for each instance: the best of three rounds.

    CPU time, not wall time, so other processes on the box do not distort
    the fit; each round times the whole series, so what noise remains hits
    one round rather than every repeat of one size.
    """
    best = [math.inf] * len(instances)
    gc.disable()
    try:
        for _ in range(3):
            for k, inst in enumerate(instances):
                start = time.process_time()
                fn(inst, 4)
                best[k] = min(best[k], time.process_time() - start)
    finally:
        gc.enable()
    return best


def _loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


@pytest.mark.parametrize(
    "algo", [kumar_rudra, compute_demand_profile], ids=lambda f: f.__name__
)
def test_complexity_contract(emit, algo):
    instances = [SWEEP_GENERATORS["interval"](n, n, 4, n) for n in DOUBLING]
    times = _best_of_three(algo, instances)
    exponent = _loglog_slope(DOUBLING, times)
    emit(
        f"complexity contract: {algo.__name__} (g=4, horizon=n, best of 3)",
        ["n", "CPU ms"],
        [[n, f"{1000 * t:.2f}"] for n, t in zip(DOUBLING, times)]
        + [["exponent", f"{exponent:.2f} (max {MAX_EXPONENT})"]],
    )
    assert exponent <= MAX_EXPONENT
