"""E1 — Figure 1: the introductory packing example.

Paper claim: the seven interval jobs with g = 3 pack optimally onto two
machines; our reconstruction has optimal busy time 8.  All four interval
algorithms are run on the instance; the exact MILP confirms the optimum and
the witness bundles from the figure.
"""

import pytest

from repro.busytime import (
    chain_peeling_two_approx,
    exact_busy_time_interval,
    first_fit,
    greedy_tracking,
    kumar_rudra,
)
from repro.instances import figure1

ALGORITHMS = {
    "first_fit": first_fit,
    "greedy_tracking": greedy_tracking,
    "chain_peeling": chain_peeling_two_approx,
    "kumar_rudra": kumar_rudra,
}


def test_fig1_exact_matches_figure(emit):
    gad = figure1()
    opt = exact_busy_time_interval(gad.instance, gad.g)
    rows = [["exact MILP", opt.total_busy_time, opt.num_machines]]
    for name, fn in ALGORITHMS.items():
        s = fn(gad.instance, gad.g)
        s.verify()
        rows.append([name, s.total_busy_time, s.num_machines])
        assert s.total_busy_time >= opt.total_busy_time - 1e-9
    emit(
        "E1 / Figure 1 — 7 interval jobs, g=3 (paper: OPT on 2 machines)",
        ["algorithm", "busy time", "machines"],
        rows,
    )
    assert opt.total_busy_time == pytest.approx(gad.facts["opt_busy_time"])
    assert opt.num_machines >= gad.facts["min_machines"]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_fig1_algorithm_runtime(benchmark, name):
    gad = figure1()
    fn = ALGORITHMS[name]
    schedule = benchmark(fn, gad.instance, gad.g)
    schedule.verify()
