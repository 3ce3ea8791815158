"""E-pin (engineering) — Section 4.3's pipeline solves OPT_inf once.

Not a paper claim: the flexible pipeline pins every job where an optimal
g = inf placement (OPT_inf) starts it, then packs the pinned intervals.
That placement depends on neither g nor the packer, so a process solves
its MILP once per instance and every packer reuses it.  The guard runs
the four packers on busy-batch-shaped flexible instances (n=80, horizon
60) in one process and pins exactly one OPT_inf solve per instance, and
each packer's objective, so a reused placement changes no decision.  The
counts are deterministic, so the guard cannot flake.
"""

from repro.busytime import INTERVAL_ALGORITHMS
from repro.busytime.unbounded import _solved_placement
from repro.engine import REGISTRY
from repro.instances import SWEEP_GENERATORS
from repro.solvers.registry import capture_solves

#: ``(g, seed) -> objective per packer``, measured before the memo existed.
OBJECTIVES = {
    (2, 11): {"greedy_tracking": 126.0, "first_fit": 130.0,
              "chain_peeling": 142.0, "kumar_rudra": 134.0},
    (4, 12): {"greedy_tracking": 77.0, "first_fit": 78.0,
              "chain_peeling": 108.0, "kumar_rudra": 87.0},
    (2, 13): {"greedy_tracking": 121.0, "first_fit": 126.0,
              "chain_peeling": 146.0, "kumar_rudra": 130.0},
}


def test_opt_infinity_solve_count(emit):
    _solved_placement.cache_clear()  # solve as a fresh process would
    rows, objectives = [], {}
    with capture_solves() as solves:
        for g, seed in OBJECTIVES:
            instance = SWEEP_GENERATORS["flexible"](80, 60, g, seed)
            before = len(solves)
            objectives[g, seed] = {
                name: REGISTRY.solve("busy", name, instance, g).objective
                for name in INTERVAL_ALGORITHMS
            }
            rows.append([f"g={g}, seed {seed}", len(solves) - before,
                         len(INTERVAL_ALGORITHMS)])
    emit(
        "OPT_inf MILP solves per flexible instance (n=80, horizon 60)",
        ["instance", "solves", "packers run"],
        rows,
    )
    assert [event["kind"] for event in solves] == ["milp"] * len(OBJECTIVES)
    assert objectives == OBJECTIVES
