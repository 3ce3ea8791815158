"""E13 — head-to-head synthesis: every busy-time algorithm on every family.

Not a single paper figure but the summary the paper's results imply: across
instance families and capacities, the cost ordering of the proven guarantees
(2-approx <= 3-approx <= 4-approx, all >= the profile bound) should be
visible in aggregate, and no algorithm may ever breach its own bound.
"""

import pytest

from repro.busytime import (
    best_lower_bound,
    chain_peeling_two_approx,
    first_fit,
    greedy_tracking,
    kumar_rudra,
)
from repro.instances import (
    random_clique_instance,
    random_interval_instance,
    random_proper_instance,
)

from oracles import random_laminar_instance

ALGOS = {
    "first_fit(4x)": (first_fit, 4.0),
    "greedy_tracking(3x)": (greedy_tracking, 3.0),
    "chain_peeling(2x)": (chain_peeling_two_approx, 2.0),
    "kumar_rudra(2x)": (kumar_rudra, 2.0),
}

FAMILIES = {
    "uniform": lambda rng: random_interval_instance(20, 30.0, rng=rng),
    "proper": lambda rng: random_proper_instance(20, 30.0, rng=rng),
    "clique": lambda rng: random_clique_instance(20, 30.0, rng=rng),
    "laminar": lambda rng: random_laminar_instance(3, 2, rng=rng),
}


def test_headtohead_matrix(rng, emit):
    rows = []
    for fam_name, factory in FAMILIES.items():
        for g in (2, 4):
            means = {}
            worsts = {}
            for _ in range(8):
                inst = factory(rng)
                lb = best_lower_bound(inst, g)
                for algo_name, (fn, bound) in ALGOS.items():
                    s = fn(inst, g)
                    ratio = s.total_busy_time / lb
                    means[algo_name] = means.get(algo_name, 0.0) + ratio / 8
                    worsts[algo_name] = max(
                        worsts.get(algo_name, 0.0), ratio
                    )
                    assert ratio <= bound + 1e-9, (fam_name, g, algo_name)
            rows.append(
                [f"{fam_name}, g={g}"]
                + [round(means[a], 3) for a in ALGOS]
            )
    emit(
        "E13 — mean cost / profile bound per family (columns = algorithms)",
        ["family"] + list(ALGOS),
        rows,
    )


def test_clique_instances_near_optimal(rng):
    """On clique instances (footnote 1 regime) all algorithms do well:
    every job crosses one point so the profile bound is strong."""
    for _ in range(5):
        inst = random_clique_instance(15, 25.0, rng=rng)
        lb = best_lower_bound(inst, 3)
        for fn, bound in ALGOS.values():
            assert fn(inst, 3).total_busy_time <= bound * lb + 1e-9


@pytest.mark.parametrize("algo_name", sorted(ALGOS))
def test_algorithm_runtime_uniform_family(benchmark, rng, algo_name):
    inst = random_interval_instance(40, 60.0, rng=rng)
    fn, _ = ALGOS[algo_name]
    s = benchmark(fn, inst, 3)
    s.verify()
