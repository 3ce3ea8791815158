"""E19 (engineering) — exact-oracle scaling and cross-validation.

The ratio measurements rest on the exact MILPs; this bench records how far
they scale and re-runs the independent cross-checks (brute force, block
search) at benchmark time so a solver regression cannot silently skew every
measured ratio.
"""

import pytest

from repro.activetime import exact_active_time
from repro.busytime import exact_busy_time_interval, opt_infinity
from repro.instances import (
    random_active_time_instance,
    random_flexible_instance,
    random_interval_instance,
)

from oracles import (
    brute_force_active_time,
    brute_force_busy_time_interval,
    span_search_exact,
)


def test_cross_validation_matrix(rng, emit):
    rows = []
    agree = 0
    for _ in range(6):
        inst = random_active_time_instance(4, 6, max_length=2, rng=rng)
        g = int(rng.integers(1, 3))
        try:
            milp = exact_active_time(inst, g).cost
        except RuntimeError:
            continue
        bf = brute_force_active_time(inst, g).cost
        assert milp == bf
        agree += 1
    rows.append(["active time: MILP vs brute force", agree])

    agree = 0
    for _ in range(6):
        inst = random_interval_instance(5, 8.0, rng=rng)
        g = int(rng.integers(1, 3))
        a = exact_busy_time_interval(inst, g).total_busy_time
        b = brute_force_busy_time_interval(inst, g).total_busy_time
        assert a == pytest.approx(b, abs=1e-6)
        agree += 1
    rows.append(["busy time: MILP vs brute force", agree])

    agree = 0
    for _ in range(6):
        inst = random_flexible_instance(6, 9, rng=rng)
        a = opt_infinity(inst).busy_time
        b, _ = span_search_exact(inst)
        assert a == pytest.approx(b, abs=1e-9)
        agree += 1
    rows.append(["OPT_inf: MILP vs block search", agree])

    emit(
        "E19 — independent exact solvers agree",
        ["pair", "instances checked"],
        rows,
    )


@pytest.mark.parametrize("n,T", [(10, 14), (20, 26), (35, 40)])
def test_active_milp_scaling(benchmark, rng, n, T):
    inst = random_active_time_instance(n, T, rng=rng)
    try:
        result = benchmark(exact_active_time, inst, 3)
    except RuntimeError:
        pytest.skip("infeasible draw")
    result.verify()


@pytest.mark.parametrize("n", [6, 10, 14])
def test_busy_milp_scaling(benchmark, rng, n):
    inst = random_interval_instance(n, 1.5 * n, rng=rng)
    result = benchmark(exact_busy_time_interval, inst, 3)
    result.verify()


@pytest.mark.parametrize("n", [6, 10])
def test_span_search_scaling(benchmark, rng, n):
    inst = random_flexible_instance(n, n + 6, rng=rng)
    value, _ = benchmark(span_search_exact, inst)
    assert value >= 0
