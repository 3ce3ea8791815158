"""Dependency-free reference backend: dense two-phase simplex + branch & bound.

This backend exists for two reasons:

* **CI sanity** — it shares no code (and no native library) with the
  scipy/HiGHS path, so agreement between the two on the paper's example
  instances is a real cross-check, not a tautology;
* **portability** — environments without a working HiGHS build can still
  run every LP-based algorithm on small instances.

It is deliberately simple: a dense tableau, Bland's anti-cycling rule,
artificial variables on every row (uniform phase 1), and best-first-free
depth-first branch & bound on the integral columns.  Complexity is
polynomial per pivot but the tableau is dense — keep instances tiny
(a few hundred columns is comfortable; there is a hard guard at
:data:`MAX_DENSE_VARS`).
"""

from __future__ import annotations

import time

import numpy as np

from .base import SolverResult
from .ir import LinearProgram

__all__ = ["ReferenceBackend"]

#: Refuse to densify anything larger than this many columns.
MAX_DENSE_VARS = 5000

_TOL = 1e-9
#: Integrality tolerance for branch & bound leaves.
_INT_TOL = 1e-6
#: Branch & bound gives up (status ``error``) past this many nodes.
_MAX_NODES = 200_000


class _Unbounded(Exception):
    pass


# ----------------------------------------------------------------------
# Dense two-phase simplex
# ----------------------------------------------------------------------
def _pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    t[row] /= t[row, col]
    factors = t[:, col].copy()
    factors[row] = 0.0
    t -= np.outer(factors, t[row])
    basis[row] = col


def _run_simplex(
    t: np.ndarray,
    basis: list[int],
    cost_row: int,
    m: int,
) -> None:
    """Minimize the objective stored in ``t[cost_row]`` in place.

    ``m`` is the number of constraint rows (rows ``0..m-1``).  Raises
    :class:`_Unbounded`; returns at optimality.
    Bland's rule (lowest-index entering column, lowest-basis-index
    leaving row among ties) guarantees termination.
    """
    max_iter = 200 * (m + t.shape[1])
    for _ in range(max_iter):
        reduced = t[cost_row, :-1]
        entering = -1
        for j in range(len(reduced)):
            if reduced[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return
        leaving, best = -1, np.inf
        col = t[:m, entering]
        rhs = t[:m, -1]
        for i in range(m):
            if col[i] > _TOL:
                ratio = rhs[i] / col[i]
                if ratio < best - _TOL or (
                    ratio <= best + _TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best, leaving = min(best, ratio), i
        if leaving < 0:
            raise _Unbounded
        _pivot(t, basis, leaving, entering)
    raise RuntimeError("simplex iteration limit hit (numerical trouble?)")


def _dense_lp(
    c: np.ndarray,
    a_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    a_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    lb: np.ndarray,
    ub: np.ndarray,
) -> tuple[str, np.ndarray | None, float | None]:
    """Solve one bounded LP; returns ``(status, x, objective)``."""
    n = len(c)
    if not np.all(np.isfinite(lb)):
        raise ValueError(
            "reference backend requires finite lower bounds on every column"
        )
    if np.any(lb > ub + _TOL):
        return "infeasible", None, None

    # Shift to z = x - lb >= 0; fold finite upper bounds into rows.
    rows_a: list[np.ndarray] = []
    rows_b: list[float] = []
    if a_ub is not None:
        shifted = b_ub - a_ub @ lb
        for i in range(a_ub.shape[0]):
            rows_a.append(a_ub[i])
            rows_b.append(float(shifted[i]))
    for i in range(n):
        if np.isfinite(ub[i]):
            row = np.zeros(n)
            row[i] = 1.0
            rows_a.append(row)
            rows_b.append(float(ub[i] - lb[i]))
    m_ub = len(rows_a)
    if a_eq is not None:
        shifted = b_eq - a_eq @ lb
        for i in range(a_eq.shape[0]):
            rows_a.append(a_eq[i])
            rows_b.append(float(shifted[i]))
    m = len(rows_a)
    if m == 0:
        # Bounded below by lb and no constraints: minimize column-wise.
        x = lb.copy()
        if np.any((c < -_TOL) & ~np.isfinite(ub)):
            return "unbounded", None, None
        lower = c < -_TOL  # same mask as the guard: near-zero costs stay at lb
        x[lower] = ub[lower]
        return "optimal", x, float(c @ x)

    # Equality standard form: slacks on the <= rows, then artificials
    # on every row (uniform phase-1 basis).
    a = np.zeros((m, n + m_ub + m))
    b = np.asarray(rows_b, dtype=float)
    for i, row in enumerate(rows_a):
        a[i, :n] = row
    for i in range(m_ub):
        a[i, n + i] = 1.0
    neg = b < 0
    a[neg] *= -1.0
    b = np.abs(b)
    art0 = n + m_ub
    for i in range(m):
        a[i, art0 + i] = 1.0

    # Tableau: m constraint rows, then the phase-2 cost row, then the
    # phase-1 cost row; last column is the rhs.
    t = np.zeros((m + 2, a.shape[1] + 1))
    t[:m, :-1] = a
    t[:m, -1] = b
    t[m, :n] = c  # phase-2 reduced costs (artificials cost 0 here)
    t[m + 1, :art0] = -a[:, :art0].sum(axis=0)  # phase-1: w = sum(artificials)
    t[m + 1, -1] = -b.sum()
    basis = list(range(art0, art0 + m))

    try:
        _run_simplex(t, basis, m + 1, m)
    except _Unbounded:  # pragma: no cover - phase 1 is bounded below by 0
        return "error", None, None
    if -t[m + 1, -1] > 1e-7:
        return "infeasible", None, None

    # Drive leftover zero-level artificials out of the basis.
    for i in range(m):
        if basis[i] >= art0:
            entering = next(
                (j for j in range(art0) if abs(t[i, j]) > _TOL), None
            )
            if entering is not None:
                _pivot(t, basis, i, entering)
            # else: redundant row; the artificial stays basic at level 0
            # and its column is barred below, so it can never re-enter.

    # Phase 2 on the original objective, artificial columns barred.
    t[m + 1, :] = 0.0
    t[:, art0 : art0 + m] = 0.0
    try:
        _run_simplex(t, basis, m, m)
    except _Unbounded:
        return "unbounded", None, None

    z = np.zeros(a.shape[1])
    for i in range(m):
        z[basis[i]] = t[i, -1]
    x = z[:n] + lb
    return "optimal", x, float(c @ x)


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
class ReferenceBackend:
    """From-scratch dense simplex + branch & bound (numpy only)."""

    name = "reference"

    def capabilities(self) -> frozenset[str]:
        return frozenset({"lp", "milp", "dependency-free", "tiny"})

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
        if lp.num_vars > MAX_DENSE_VARS:
            raise ValueError(
                f"{lp.describe()} exceeds the reference backend's dense "
                f"limit of {MAX_DENSE_VARS} columns; use scipy-highs"
            )
        a_ub = None if lp.a_ub is None else lp.a_ub.toarray()
        a_eq = None if lp.a_eq is None else lp.a_eq.toarray()
        lb, ub = lp.bounds_arrays()
        int_cols = np.flatnonzero(lp.integrality_array() > 0)

        try:
            if len(int_cols) == 0:
                status, x, obj = _dense_lp(
                    lp.c, a_ub, lp.b_ub, a_eq, lp.b_eq, lb, ub
                )
            else:
                status, x, obj = self._branch_and_bound(
                    lp, a_ub, a_eq, lb, ub, int_cols
                )
        except ValueError:
            raise
        except RuntimeError as exc:
            return SolverResult(
                status="error",
                backend=self.name,
                message=str(exc),
                elapsed=time.perf_counter() - start,
            )
        return SolverResult(
            status=status,
            backend=self.name,
            objective=obj if status == "optimal" else None,
            x=x if status == "optimal" else None,
            message="" if status == "optimal" else status,
            elapsed=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _branch_and_bound(
        self,
        lp: LinearProgram,
        a_ub,
        a_eq,
        lb: np.ndarray,
        ub: np.ndarray,
        int_cols: np.ndarray,
    ) -> tuple[str, np.ndarray | None, float | None]:
        best_obj = np.inf
        best_x: np.ndarray | None = None
        stack: list[tuple[np.ndarray, np.ndarray]] = [(lb, ub)]
        nodes = 0
        while stack:
            nodes += 1
            if nodes > _MAX_NODES:
                raise RuntimeError(
                    f"branch & bound exceeded {_MAX_NODES} nodes"
                )
            node_lb, node_ub = stack.pop()
            status, x, obj = _dense_lp(
                lp.c, a_ub, lp.b_ub, a_eq, lp.b_eq, node_lb, node_ub
            )
            if status == "unbounded" and nodes == 1:
                return "unbounded", None, None
            if status != "optimal" or obj >= best_obj - _TOL:
                continue
            frac = [
                (abs(x[i] - round(x[i])), i)
                for i in int_cols
                if abs(x[i] - round(x[i])) > _INT_TOL
            ]
            if not frac:
                z = x.copy()
                z[int_cols] = np.round(z[int_cols])
                best_obj, best_x = float(lp.c @ z), z
                continue
            # Branch on the most fractional column (ties: lowest index,
            # for determinism); explore the floor side first.
            _, i = max(frac, key=lambda fi: (fi[0], -fi[1]))
            down_ub = node_ub.copy()
            down_ub[i] = np.floor(x[i])
            up_lb = node_lb.copy()
            up_lb[i] = np.ceil(x[i])
            stack.append((up_lb, node_ub))
            stack.append((node_lb, down_ub))
        if best_x is None:
            return "infeasible", None, None
        return "optimal", best_x, best_obj
