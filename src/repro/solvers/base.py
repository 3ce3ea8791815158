"""The ``SolverBackend`` protocol and the uniform ``SolverResult``.

A backend is anything that can take a :class:`~repro.solvers.ir.LinearProgram`
and return a :class:`SolverResult`.  The contract is deliberately small —
``solve`` and ``capabilities`` — so that wrapping a new solver
is a one-file affair (see :mod:`repro.solvers.scipy_backend` for the scipy
adapter and :mod:`repro.solvers.reference` for the from-scratch dense
simplex).

Status vocabulary (shared by every backend):

* ``optimal``    — solved to optimality; ``x`` and ``objective`` are set.
* ``infeasible`` — no feasible point exists.
* ``unbounded``  — the objective is unbounded below.
* ``timeout``    — an iteration limit hit before optimality.
* ``error``      — anything else (numerical failure, solver crash).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .ir import LinearProgram

__all__ = [
    "SolverResult",
    "SolverBackend",
    "SolverError",
]

#: The closed set of result statuses every backend maps onto.
STATUSES = ("optimal", "infeasible", "unbounded", "timeout", "error")


class SolverError(RuntimeError):
    """Raised by :meth:`SolverResult.require_optimal` on a non-optimal solve."""


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Uniform outcome of one backend solve.

    ``x`` is the primal solution in the IR's column order (``None``
    unless ``status == "optimal"``).  ``eq=False`` because the ndarray
    field makes generated equality ambiguous.
    """

    status: str
    backend: str
    objective: float | None = None
    x: np.ndarray | None = None
    message: str = ""
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"unknown status {self.status!r}; choose from {STATUSES}"
            )

    @property
    def ok(self) -> bool:
        """True when the solve reached a proven optimum."""
        return self.status == "optimal"

    def require_optimal(self, context: str = "") -> "SolverResult":
        """Return self, or raise :class:`SolverError` with full context."""
        if self.ok:
            return self
        prefix = f"{context}: " if context else ""
        detail = f" ({self.message})" if self.message else ""
        raise SolverError(
            f"{prefix}backend {self.backend!r} returned "
            f"{self.status}{detail}"
        )


@runtime_checkable
class SolverBackend(Protocol):
    """What the rest of the repository knows about an LP/MILP solver.

    Implementations are stateless adapters: each ``solve`` call
    returns an independent result, so one backend instance can be
    shared process-wide (the registry does exactly that).
    """

    #: Stable registry name (``scipy-highs``, ``reference``).
    name: str

    def capabilities(self) -> frozenset[str]:
        """Declared abilities: a set drawn from ``{"lp", "milp",
        "sparse", "dependency-free", "tiny"}`` (extensible)."""
        ...

    def solve(self, lp: LinearProgram) -> SolverResult:
        """Solve ``lp`` and map the native outcome onto a SolverResult."""
        ...
