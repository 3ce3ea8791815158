"""The backend-neutral LP/MILP intermediate representation.

Every optimization problem in the repository — the Section-3 ``LP1``
relaxation, the exact active-time, busy-time and OPT_∞ MILPs — is
expressed as one :class:`LinearProgram`:

    min  c @ x
    s.t. a_ub @ x <= b_ub
         a_eq @ x == b_eq
         lb <= x <= ub
         x_i integral where integrality[i] == 1

Construction mirrors scipy's ``linprog``/``milp`` split (one-sided
inequality plus equality blocks) because that is the lowest common
denominator across backends: scipy consumes it directly, the dense
reference simplex translates row by row.  Problem assemblers
that naturally produce two-sided rows ``lb_row <= a @ x <= ub_row``
(the MILP oracles) go through :meth:`LinearProgram.from_two_sided`,
which splits them into the canonical blocks.

The IR is solver-agnostic on purpose: it stores *sparse* matrices
(CSR), never a backend handle, so it can be built once and handed to
any registered :class:`~repro.solvers.base.SolverBackend`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

__all__ = ["LinearProgram"]


def _as_csr(a, num_vars: int) -> sparse.csr_matrix | None:
    """Normalize a constraint block to CSR (``None`` stays ``None``)."""
    if a is None:
        return None
    mat = sparse.csr_matrix(a)
    if mat.shape[1] != num_vars:
        raise ValueError(
            f"constraint block has {mat.shape[1]} columns, expected {num_vars}"
        )
    return mat


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """One minimization LP/MILP in canonical block form.

    ``eq=False``: ndarray fields make generated equality ambiguous
    (``==`` on arrays is elementwise); identity comparison is the only
    well-defined default.

    Attributes
    ----------
    c:
        Objective coefficients, one per column.
    a_ub, b_ub:
        Inequality block ``a_ub @ x <= b_ub`` (``None`` when absent).
    a_eq, b_eq:
        Equality block ``a_eq @ x == b_eq`` (``None`` when absent).
    lb, ub:
        Per-column bounds (``-inf``/``inf`` allowed).
    integrality:
        Per-column 0/1 mask; 1 marks an integer-constrained column.
    """

    c: np.ndarray
    a_ub: sparse.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sparse.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    integrality: np.ndarray | None = None
    #: Free-form provenance ("active-time LP1", "busy interval MILP");
    #: shows up in backend error messages.
    label: str = field(default="")

    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of columns."""
        return int(len(self.c))

    @property
    def num_constraints(self) -> int:
        """Total rows across the inequality and equality blocks."""
        rows = 0
        if self.a_ub is not None:
            rows += self.a_ub.shape[0]
        if self.a_eq is not None:
            rows += self.a_eq.shape[0]
        return rows

    @property
    def is_milp(self) -> bool:
        """True when at least one column is integer-constrained."""
        return self.integrality is not None and bool(
            np.any(self.integrality > 0)
        )

    @property
    def required_capability(self) -> str:
        """The backend capability this program needs: ``lp`` or ``milp``."""
        return "milp" if self.is_milp else "lp"

    # ------------------------------------------------------------------
    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lb, ub)`` with defaults filled in (``0`` / ``+inf``).

        Always fresh copies: callers may edit them (e.g. to pin
        variables) without mutating this frozen program.
        """
        lb = (
            np.zeros(self.num_vars)
            if self.lb is None
            else np.array(self.lb, dtype=float)
        )
        ub = (
            np.full(self.num_vars, np.inf)
            if self.ub is None
            else np.array(self.ub, dtype=float)
        )
        return lb, ub

    def integrality_array(self) -> np.ndarray:
        """Per-column integrality mask (a copy) with the all-continuous
        default."""
        if self.integrality is None:
            return np.zeros(self.num_vars)
        return np.array(self.integrality, dtype=float)

    def describe(self) -> str:
        """One-line summary for logs and error messages."""
        kind = "MILP" if self.is_milp else "LP"
        prefix = f"{self.label}: " if self.label else ""
        return (
            f"{prefix}{kind} with {self.num_vars} vars, "
            f"{self.num_constraints} constraints"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        c,
        *,
        a_ub=None,
        b_ub=None,
        a_eq=None,
        b_eq=None,
        lb=None,
        ub=None,
        integrality=None,
        label: str = "",
    ) -> "LinearProgram":
        """Validating constructor: normalizes arrays and checks shapes."""
        c = np.asarray(c, dtype=float).ravel()
        n = len(c)
        a_ub = _as_csr(a_ub, n)
        a_eq = _as_csr(a_eq, n)
        b_ub = None if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
        b_eq = None if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
        if (a_ub is None) != (b_ub is None):
            raise ValueError("a_ub and b_ub must be given together")
        if (a_eq is None) != (b_eq is None):
            raise ValueError("a_eq and b_eq must be given together")
        if a_ub is not None and a_ub.shape[0] != len(b_ub):
            raise ValueError(
                f"a_ub has {a_ub.shape[0]} rows but b_ub has {len(b_ub)}"
            )
        if a_eq is not None and a_eq.shape[0] != len(b_eq):
            raise ValueError(
                f"a_eq has {a_eq.shape[0]} rows but b_eq has {len(b_eq)}"
            )
        for name, arr in (("lb", lb), ("ub", ub), ("integrality", integrality)):
            if arr is not None and len(np.asarray(arr).ravel()) != n:
                raise ValueError(f"{name} must have one entry per column")
        return cls(
            c=c,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            lb=None if lb is None else np.asarray(lb, dtype=float).ravel(),
            ub=None if ub is None else np.asarray(ub, dtype=float).ravel(),
            integrality=(
                None
                if integrality is None
                else np.asarray(integrality, dtype=float).ravel()
            ),
            label=label,
        )

    @classmethod
    def from_two_sided(
        cls,
        c,
        a,
        row_lb,
        row_ub,
        *,
        lb=None,
        ub=None,
        integrality=None,
        label: str = "",
    ) -> "LinearProgram":
        """Build from two-sided rows ``row_lb <= a @ x <= row_ub``.

        Rows with ``row_lb == row_ub`` become equalities; finite upper
        (lower) sides become ``<=`` rows (lower sides negated).  This is
        the bridge from the MILP oracles, which assemble scipy-style
        ``LinearConstraint`` data.
        """
        a = sparse.csr_matrix(a)
        n = a.shape[1]
        row_lb = np.broadcast_to(
            np.asarray(row_lb, dtype=float), (a.shape[0],)
        )
        row_ub = np.broadcast_to(
            np.asarray(row_ub, dtype=float), (a.shape[0],)
        )

        eq_mask = row_lb == row_ub
        ub_rows: list[int] = []
        ub_vals: list[float] = []
        neg_rows: list[int] = []
        neg_vals: list[float] = []
        for i in range(a.shape[0]):
            if eq_mask[i]:
                continue
            if np.isfinite(row_ub[i]):
                ub_rows.append(i)
                ub_vals.append(row_ub[i])
            if np.isfinite(row_lb[i]):
                neg_rows.append(i)
                neg_vals.append(-row_lb[i])

        blocks = []
        b_ub: list[float] = []
        if ub_rows:
            blocks.append(a[ub_rows])
            b_ub.extend(ub_vals)
        if neg_rows:
            blocks.append(-a[neg_rows])
            b_ub.extend(neg_vals)
        a_ub = sparse.vstack(blocks).tocsr() if blocks else None
        a_eq = a[np.flatnonzero(eq_mask)] if eq_mask.any() else None
        return cls.build(
            c,
            a_ub=a_ub,
            b_ub=np.asarray(b_ub) if blocks else None,
            a_eq=a_eq,
            b_eq=row_ub[eq_mask] if eq_mask.any() else None,
            lb=lb,
            ub=ub,
            integrality=integrality,
            label=label,
        )

    # ------------------------------------------------------------------
    def with_bounds(self, lb, ub) -> "LinearProgram":
        """A copy with replaced variable bounds (used to pin variables)."""
        lb = np.asarray(lb, dtype=float).ravel()
        ub = np.asarray(ub, dtype=float).ravel()
        if len(lb) != self.num_vars or len(ub) != self.num_vars:
            raise ValueError("bounds must have one entry per column")
        return replace(self, lb=lb, ub=ub)

    def as_feasibility(self) -> "LinearProgram":
        """A copy with a zero objective (pure feasibility probe)."""
        return replace(self, c=np.zeros(self.num_vars))
