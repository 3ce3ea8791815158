"""The default backend: scipy's HiGHS wrappers (``linprog``/``milp``).

This reproduces the seed behavior exactly — pure LPs go through
``scipy.optimize.linprog(method="highs")``, anything with integrality
through ``scipy.optimize.milp`` — but behind the uniform
:class:`~repro.solvers.base.SolverBackend` surface, with scipy's status
codes mapped onto the shared vocabulary the way scipy's own
``_linprog_highs`` maps HiGHS model statuses.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .base import SolverResult
from .ir import LinearProgram

__all__ = ["ScipyHighsBackend"]

#: scipy status codes (shared by linprog and milp) -> uniform statuses.
_STATUS = {
    0: "optimal",
    1: "timeout",  # iteration limit
    2: "infeasible",
    3: "unbounded",
    4: "error",
}


class ScipyHighsBackend:
    """HiGHS via scipy — sparse-aware, handles both LP and MILP."""

    name = "scipy-highs"

    def capabilities(self) -> frozenset[str]:
        return frozenset({"lp", "milp", "sparse"})

    # ------------------------------------------------------------------
    def solve(self, lp: LinearProgram) -> SolverResult:
        start = time.perf_counter()
        if lp.num_vars == 0:
            return SolverResult(
                status="optimal",
                backend=self.name,
                objective=0.0,
                x=np.zeros(0),
                elapsed=time.perf_counter() - start,
            )
        res = self._solve_milp(lp) if lp.is_milp else self._solve_lp(lp)
        status = _STATUS.get(int(res.status), "error")
        if status == "optimal" and res.x is None:  # defensive: never trust both
            status = "error"
        return SolverResult(
            status=status,
            backend=self.name,
            objective=float(res.fun) if status == "optimal" else None,
            x=np.asarray(res.x) if status == "optimal" else None,
            message=str(getattr(res, "message", "") or ""),
            elapsed=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _solve_lp(self, lp: LinearProgram):
        lb, ub = lp.bounds_arrays()
        return linprog(
            c=lp.c,
            A_ub=lp.a_ub,
            b_ub=lp.b_ub,
            A_eq=lp.a_eq,
            b_eq=lp.b_eq,
            bounds=np.column_stack((lb, ub)),
            method="highs",
        )

    def _solve_milp(self, lp: LinearProgram):
        constraints = []
        if lp.a_ub is not None:
            constraints.append(
                LinearConstraint(lp.a_ub, -np.inf, lp.b_ub)
            )
        if lp.a_eq is not None:
            constraints.append(
                LinearConstraint(lp.a_eq, lp.b_eq, lp.b_eq)
            )
        lb, ub = lp.bounds_arrays()
        return milp(
            c=lp.c,
            constraints=constraints,
            integrality=lp.integrality_array(),
            bounds=Bounds(lb, ub),
        )
