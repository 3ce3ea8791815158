"""Exact solvers via mixed-integer programming (backend-neutral).

The paper proves its approximation guarantees analytically; to *measure*
ratios empirically we need the true optima.  On the paper's gadgets the optima
have closed forms (checked in the tests); on random instances we obtain them
from the MILPs assembled here:

* :func:`solve_active_time_exact` — the Section-3 IP with binary ``y`` and
  *continuous* ``x``: once the active-slot set is integral, a feasible
  fractional assignment implies a feasible integral one by flow integrality
  (the same argument the paper uses after rounding), so this formulation is
  exact while staying much smaller than a fully binary model.
* :func:`solve_busy_time_interval_exact` — busy time for interval jobs:
  assignment variables over (job, machine) plus busy indicators over
  (machine, interesting interval).
* :func:`solve_unbounded_span_exact` — the unbounded-capacity placement step
  (OPT_inf): start-time choice variables plus on/off slot indicators.  This
  replaces Khandekar et al.'s polynomial dynamic program with an exact
  pseudo-polynomial MILP producing the same optimal value (see the §4.3 row
  of README's "Paper mapping").
* :func:`solve_busy_time_flexible_exact` — fully general (tiny instances):
  start choice x machine assignment x busy indicators.

All four require integral data; busy-time interval jobs may be real-valued
since only interesting-interval lengths enter the objective.

Every formulation is emitted as a :class:`~repro.solvers.ir.LinearProgram`
and routed through :func:`repro.solvers.solve_ir`, so ``backend=`` selects
any registered MILP backend (scipy-HiGHS by default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..core.intervals import interesting_intervals
from ..core.jobs import Instance, Job
from ..core.validation import (
    require_capacity,
    require_integral,
    require_interval_jobs,
)
from ..solvers import LinearProgram, SolverBackend, solve_ir
from .model import build_active_time_model

__all__ = [
    "MilpResult",
    "solve_active_time_exact",
    "solve_busy_time_interval_exact",
    "solve_unbounded_span_exact",
    "solve_busy_time_flexible_exact",
]


@dataclass(frozen=True)
class MilpResult:
    """Optimal objective plus a decoded witness (algorithm specific)."""

    objective: float
    witness: dict

    def __float__(self) -> float:
        return self.objective


def _run_milp(
    c, a, lb, ub, integrality, *, backend=None, label: str = "MILP"
) -> np.ndarray:
    """Translate two-sided rows into the IR and route to a backend."""
    num_vars = len(np.asarray(c).ravel())
    lp = LinearProgram.from_two_sided(
        c,
        a,
        lb,
        ub,
        lb=np.zeros(num_vars),
        ub=np.ones(num_vars),
        integrality=integrality,
        label=label,
    )
    result = solve_ir(lp, backend=backend)
    result.require_optimal(label)
    return result.x


# ----------------------------------------------------------------------
# Active time (exact)
# ----------------------------------------------------------------------
def solve_active_time_exact(
    instance: Instance,
    g: int,
    *,
    backend: str | SolverBackend | None = None,
) -> MilpResult:
    """Exact minimum active time (Section 2/3 objective).

    Returns a :class:`MilpResult` whose witness contains ``active_slots``
    (sorted list) and the optimal objective (number of active slots).

    Raises ``RuntimeError`` when the instance is infeasible for capacity
    ``g`` (e.g. more than ``g`` unit jobs confined to one slot).
    """
    model = build_active_time_model(instance, g)
    if instance.n == 0:
        return MilpResult(0.0, {"active_slots": []})
    # y binary, x continuous: emitted directly by the model.
    result = solve_ir(
        model.to_linear_program(integral=True), backend=backend
    )
    result.require_optimal(f"active-time exact (g={g})")
    z = result.x
    y, _ = model.extract(z)
    active = [t for t in range(1, model.T + 1) if y[t] > 0.5]
    return MilpResult(float(len(active)), {"active_slots": active})


# ----------------------------------------------------------------------
# Busy time, interval jobs (exact)
# ----------------------------------------------------------------------
def solve_busy_time_interval_exact(
    instance: Instance,
    g: int,
    *,
    max_machines: int | None = None,
    backend: str | SolverBackend | None = None,
) -> MilpResult:
    """Exact minimum busy time for an interval-job instance.

    ``max_machines`` bounds the number of candidate machines (defaults to
    ``n``, always sufficient since each job alone on a machine is feasible).
    Symmetry is broken by allowing job ``k`` (in input order) only on machines
    ``0..k``.

    The witness maps ``"bundles"`` to a list of job-id lists, one per used
    machine.
    """
    require_interval_jobs(instance, "busy-time exact")
    require_capacity(g)
    n = instance.n
    if n == 0:
        return MilpResult(0.0, {"bundles": []})
    M = min(max_machines or n, n)
    segments = interesting_intervals(instance)
    seg_len = [b - a for a, b in segments]
    seg_jobs: list[list[int]] = []
    for a, b in segments:
        mid = 0.5 * (a + b)
        seg_jobs.append([k for k, j in enumerate(instance.jobs) if j.is_live_at(mid)])

    # Columns: z[k, m] for m <= min(k, M-1), then u[m, i].
    z_col: dict[tuple[int, int], int] = {}
    col = 0
    for k in range(n):
        for m in range(min(k + 1, M)):
            z_col[(k, m)] = col
            col += 1
    u_col: dict[tuple[int, int], int] = {}
    for m in range(M):
        for i in range(len(segments)):
            u_col[(m, i)] = col
            col += 1
    num_vars = col

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lb: list[float] = []
    ub: list[float] = []
    row = 0

    # each job on exactly one machine
    for k in range(n):
        for m in range(min(k + 1, M)):
            rows.append(row)
            cols.append(z_col[(k, m)])
            vals.append(1.0)
        lb.append(1.0)
        ub.append(1.0)
        row += 1

    # capacity + busy indicator:  sum_{k live in seg i} z[k,m] <= g * u[m,i]
    for m in range(M):
        for i, live in enumerate(seg_jobs):
            touched = False
            for k in live:
                c = z_col.get((k, m))
                if c is not None:
                    rows.append(row)
                    cols.append(c)
                    vals.append(1.0)
                    touched = True
            if not touched:
                continue
            rows.append(row)
            cols.append(u_col[(m, i)])
            vals.append(-float(g))
            lb.append(-np.inf)
            ub.append(0.0)
            row += 1

    a = sparse.coo_matrix((vals, (rows, cols)), shape=(row, num_vars)).tocsr()
    c_vec = np.zeros(num_vars)
    for (m, i), cc in u_col.items():
        c_vec[cc] = seg_len[i]

    z = _run_milp(
        c=c_vec,
        a=a,
        lb=np.asarray(lb),
        ub=np.asarray(ub),
        integrality=np.ones(num_vars),
        backend=backend,
        label=f"busy-time interval exact (g={g})",
    )

    bundles: dict[int, list[int]] = {}
    for (k, m), cc in z_col.items():
        if z[cc] > 0.5:
            bundles.setdefault(m, []).append(instance.jobs[k].id)
    bundle_list = [sorted(v) for _, v in sorted(bundles.items())]
    objective = float(c_vec @ z)
    return MilpResult(objective, {"bundles": bundle_list})


# ----------------------------------------------------------------------
# Unbounded-capacity span minimization (OPT_inf)
# ----------------------------------------------------------------------
def solve_unbounded_span_exact(
    instance: Instance,
    *,
    backend: str | SolverBackend | None = None,
) -> MilpResult:
    """Exact ``OPT_inf``: place every job to minimize the busy-time span.

    Requires integral data; jobs start at integral times (for integral
    instances an optimal solution with integral starts always exists — shift
    every maximal busy block left until it hits a release-time constraint,
    which happens at integral offsets).

    Witness: ``{"starts": {job_id: start}}``.
    """
    require_integral(instance, "unbounded span")
    if instance.n == 0:
        return MilpResult(0.0, {"starts": {}})
    T = instance.horizon

    start_col: dict[tuple[int, int], int] = {}
    col = 0
    for job in instance.jobs:
        r, d = job.integral_window()
        p = job.integral_length()
        for s in range(r, d - p + 1):
            start_col[(job.id, s)] = col
            col += 1
    y_base = col
    num_vars = col + T  # y_t for t = 1..T at y_base + (t - 1)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lb: list[float] = []
    ub: list[float] = []
    row = 0

    # exactly one start per job
    for job in instance.jobs:
        r, d = job.integral_window()
        p = job.integral_length()
        for s in range(r, d - p + 1):
            rows.append(row)
            cols.append(start_col[(job.id, s)])
            vals.append(1.0)
        lb.append(1.0)
        ub.append(1.0)
        row += 1

    # machine on whenever some job runs:
    #   sum_{starts s of job j covering slot t} sigma_{j,s} <= y_t
    # grouped per (job, slot) keeps the matrix sparse.
    for job in instance.jobs:
        r, d = job.integral_window()
        p = job.integral_length()
        for t in range(r + 1, d + 1):
            covering = [
                start_col[(job.id, s)]
                for s in range(max(r, t - p), min(d - p, t - 1) + 1)
            ]
            if not covering:
                continue
            for c in covering:
                rows.append(row)
                cols.append(c)
                vals.append(1.0)
            rows.append(row)
            cols.append(y_base + t - 1)
            vals.append(-1.0)
            lb.append(-np.inf)
            ub.append(0.0)
            row += 1

    a = sparse.coo_matrix((vals, (rows, cols)), shape=(row, num_vars)).tocsr()
    c_vec = np.zeros(num_vars)
    c_vec[y_base:] = 1.0
    z = _run_milp(
        c=c_vec,
        a=a,
        lb=np.asarray(lb),
        ub=np.asarray(ub),
        integrality=np.ones(num_vars),
        backend=backend,
        label="unbounded span exact",
    )
    starts = {
        jid: float(s) for (jid, s), cc in start_col.items() if z[cc] > 0.5
    }
    return MilpResult(float(c_vec @ z), {"starts": starts})


# ----------------------------------------------------------------------
# Busy time, flexible jobs (exact; tiny instances)
# ----------------------------------------------------------------------
def solve_busy_time_flexible_exact(
    instance: Instance,
    g: int,
    *,
    max_machines: int | None = None,
    backend: str | SolverBackend | None = None,
) -> MilpResult:
    """Exact busy time for flexible jobs with bounded ``g`` (integral data).

    This is the heavyweight oracle used only in tests and small-scale
    benchmarks: variables couple start-time choice, machine assignment and
    per-slot busy indicators, so keep ``n`` and ``T`` small (``n <= 10``,
    ``T <= 40`` is comfortable).

    Witness: ``{"starts": {job_id: start}, "machines": {job_id: machine}}``.
    """
    require_integral(instance, "flexible busy-time exact")
    require_capacity(g)
    n = instance.n
    if n == 0:
        return MilpResult(0.0, {"starts": {}, "machines": {}})
    M = min(max_machines or n, n)
    T = instance.horizon

    w_col: dict[tuple[int, int, int], int] = {}  # (job_pos, start, machine)
    col = 0
    for k, job in enumerate(instance.jobs):
        r, d = job.integral_window()
        p = job.integral_length()
        for s in range(r, d - p + 1):
            for m in range(min(k + 1, M)):
                w_col[(k, s, m)] = col
                col += 1
    u_col: dict[tuple[int, int], int] = {}
    for m in range(M):
        for t in range(1, T + 1):
            u_col[(m, t)] = col
            col += 1
    num_vars = col

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lb: list[float] = []
    ub: list[float] = []
    row = 0

    # one (start, machine) per job
    for k, job in enumerate(instance.jobs):
        r, d = job.integral_window()
        p = job.integral_length()
        for s in range(r, d - p + 1):
            for m in range(min(k + 1, M)):
                rows.append(row)
                cols.append(w_col[(k, s, m)])
                vals.append(1.0)
        lb.append(1.0)
        ub.append(1.0)
        row += 1

    # capacity + busy:  sum_{(k,s) covering t on m} w <= g * u[m,t]
    for m in range(M):
        for t in range(1, T + 1):
            touched = False
            for k, job in enumerate(instance.jobs):
                if m >= min(k + 1, M):
                    continue
                r, d = job.integral_window()
                p = job.integral_length()
                for s in range(max(r, t - p), min(d - p, t - 1) + 1):
                    rows.append(row)
                    cols.append(w_col[(k, s, m)])
                    vals.append(1.0)
                    touched = True
            if not touched:
                continue
            rows.append(row)
            cols.append(u_col[(m, t)])
            vals.append(-float(g))
            lb.append(-np.inf)
            ub.append(0.0)
            row += 1

    a = sparse.coo_matrix((vals, (rows, cols)), shape=(row, num_vars)).tocsr()
    c_vec = np.zeros(num_vars)
    for (m, t), cc in u_col.items():
        c_vec[cc] = 1.0

    z = _run_milp(
        c=c_vec,
        a=a,
        lb=np.asarray(lb),
        ub=np.asarray(ub),
        integrality=np.ones(num_vars),
        backend=backend,
        label=f"busy-time flexible exact (g={g})",
    )
    starts: dict[int, float] = {}
    machines: dict[int, int] = {}
    for (k, s, m), cc in w_col.items():
        if z[cc] > 0.5:
            jid = instance.jobs[k].id
            starts[jid] = float(s)
            machines[jid] = m
    return MilpResult(float(c_vec @ z), {"starts": starts, "machines": machines})
