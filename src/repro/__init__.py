"""repro — active-time and busy-time scheduling algorithms.

A production-quality reproduction of

    Jessica Chang, Samir Khuller, Koyel Mukherjee.
    *LP Rounding and Combinatorial Algorithms for Minimizing Active and
    Busy Time.*  SPAA 2014 (full version: arXiv:1610.08154).

Quickstart::

    from repro import Instance, round_active_time, greedy_tracking

    # Active time: 2-approximation by LP rounding (Theorem 2)
    inst = Instance.from_tuples([(0, 4, 2), (1, 5, 3), (0, 6, 1)])
    solution = round_active_time(inst, g=2)
    print(solution.cost, solution.lp_objective)

    # Busy time: GREEDYTRACKING 3-approximation (Theorem 5)
    jobs = Instance.from_intervals([(0, 2), (1, 3), (2.5, 4)])
    schedule = greedy_tracking(jobs, g=2)
    print(schedule.total_busy_time)

Package layout:

* :mod:`repro.core` — jobs, instances, interval algebra;
* :mod:`repro.flow` — Dinic max-flow and the Figure-2 feasibility network;
* :mod:`repro.lp` — the Section-3 LP/IP, its relaxation, exact MILP oracles;
* :mod:`repro.solvers` — the backend-neutral LP/MILP layer
  (:class:`~repro.solvers.LinearProgram` IR + scipy-highs / reference
  backends behind a capability-routing registry);
* :mod:`repro.activetime` — minimal feasible (3-approx) and LP rounding
  (2-approx) for the active-time problem;
* :mod:`repro.busytime` — FIRSTFIT, GREEDYTRACKING, 2-approximations,
  lower bounds, the flexible-job pipeline and preemptive variants;
* :mod:`repro.instances` — random families and every paper gadget;
* :mod:`repro.analysis` — ratio-measurement harness.
"""

from .activetime import (
    ActiveTimeSchedule,
    RoundedSolution,
    exact_active_time,
    minimal_feasible_schedule,
    round_active_time,
    unit_jobs_optimal_schedule,
)
from .busytime import (
    Bundle,
    BusyTimeSchedule,
    PreemptiveSchedule,
    best_lower_bound,
    chain_peeling_two_approx,
    compute_demand_profile,
    exact_busy_time_interval,
    first_fit,
    greedy_tracking,
    greedy_unbounded_preemptive,
    kumar_rudra,
    opt_infinity,
    preemptive_bounded,
    schedule_flexible,
)
from .core import Instance, Job
from .lp import solve_active_time_exact, solve_active_time_lp
from .solvers import LinearProgram, SolverResult, solve_ir

__version__ = "1.0.0"

__all__ = [
    "ActiveTimeSchedule",
    "Bundle",
    "BusyTimeSchedule",
    "Instance",
    "Job",
    "PreemptiveSchedule",
    "RoundedSolution",
    "__version__",
    "best_lower_bound",
    "chain_peeling_two_approx",
    "LinearProgram",
    "SolverResult",
    "compute_demand_profile",
    "exact_active_time",
    "exact_busy_time_interval",
    "first_fit",
    "greedy_tracking",
    "greedy_unbounded_preemptive",
    "kumar_rudra",
    "minimal_feasible_schedule",
    "opt_infinity",
    "preemptive_bounded",
    "round_active_time",
    "schedule_flexible",
    "solve_active_time_exact",
    "solve_active_time_lp",
    "solve_ir",
    "unit_jobs_optimal_schedule",
]
