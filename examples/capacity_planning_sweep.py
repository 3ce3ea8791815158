#!/usr/bin/env python3
"""Capacity planning: how does the parallelism budget g shape the bill?

Both of the paper's models have `g` as the hardware knob — cores per node
(active time) or VM slots per host (busy time).  This script sweeps `g` for
a fixed workload and reports the cost curves, lower bounds and the point
where extra capacity stops paying, for:

* active time: LP bound / LP rounding / exact;
* busy time: demand profile / GREEDYTRACKING / chain peeling;
* preemptive busy time (what migration could add at each g).

Run:  python examples/capacity_planning_sweep.py [seed]
"""

import sys

import numpy as np

from repro import Instance
from repro.activetime import exact_active_time, round_active_time
from repro.analysis import format_table
from repro.busytime import (
    chain_peeling_two_approx,
    demand_profile_lower_bound,
    greedy_tracking,
    mass_lower_bound,
    pin_instance,
    preemptive_bounded,
    schedule_flexible,
)
from repro.instances import random_active_time_instance, random_flexible_instance


def active_time_sweep(rng: np.random.Generator) -> None:
    inst = random_active_time_instance(
        18, horizon=14, max_length=3, max_slack=4, rng=rng
    )
    rows = []
    for g in (1, 2, 3, 4, 6, 8):
        try:
            sol = round_active_time(inst, g)
        except RuntimeError:
            rows.append([g, "infeasible", "-", "-"])
            continue
        exact = exact_active_time(inst, g)
        rows.append(
            [g, f"{sol.lp_objective:.2f}", exact.cost, sol.cost]
        )
    print(
        format_table(
            f"Active time vs capacity — {inst.describe()}",
            ["g", "LP bound", "OPT", "LP rounding"],
            rows,
        )
    )
    print("-> once g exceeds the peak overlap, cost plateaus at the",
          "longest-chain bound\n")


def busy_time_sweep(rng: np.random.Generator) -> None:
    inst = random_flexible_instance(24, 26, max_length=5, rng=rng)
    rows = []
    for g in (1, 2, 3, 4, 6, 8):
        gt = schedule_flexible(inst, g, algorithm="greedy_tracking")
        cp = schedule_flexible(inst, g, algorithm="chain_peeling")
        pre = preemptive_bounded(inst, g)
        pinned = pin_instance(inst, gt.starts)
        profile = demand_profile_lower_bound(pinned, g)
        rows.append(
            [g, f"{max(profile, mass_lower_bound(inst, g)):.2f}",
             f"{gt.total_busy_time:.2f}", f"{cp.total_busy_time:.2f}",
             f"{pre.total_busy_time:.2f}", gt.num_machines]
        )
    print(
        format_table(
            f"Busy time vs capacity — {inst.describe()}",
            ["g", "lower bound", "GREEDYTRACKING", "chain peeling",
             "preemptive (2x)", "machines (GT)"],
            rows,
        )
    )
    print("-> busy time decreases toward OPT_inf as g grows;",
          "machine count shrinks roughly as 1/g")


def main(seed: int = 5) -> None:
    rng = np.random.default_rng(seed)
    active_time_sweep(rng)
    busy_time_sweep(rng)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
