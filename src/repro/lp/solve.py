"""Solving the active-time LP relaxation (``LP1`` of Section 3).

A thin translator: the sparse model from :mod:`repro.lp.model` is emitted
as a backend-neutral IR, routed through :func:`repro.solvers.solve_ir`
(scipy-HiGHS by default, any registered backend via ``backend=``), and the
raw solution vector is post-processed into the quantities the rounding
algorithm consumes: the fractional slot openings ``y_t``, the fractional
assignments ``x_{t,j}``, and the per-deadline masses ``Y_i`` (Definition 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.jobs import Instance
from ..solvers import SolverBackend, solve_ir
from .model import ActiveTimeModel, build_active_time_model

__all__ = ["ActiveTimeLPSolution", "solve_active_time_lp"]

#: Values of ``y_t`` below this are treated as closed slots; the paper's
#: classification (barely/half/fully open) is insensitive at this resolution.
Y_TOL = 1e-9


@dataclass
class ActiveTimeLPSolution:
    """An optimal fractional solution of ``LP1``.

    Attributes
    ----------
    model:
        The LP model that was solved (carries the instance and capacity).
    objective:
        Optimal LP value ``sum_t y_t`` — a lower bound on integral OPT.
    y:
        Array of length ``T + 1``: ``y[t]`` is the opening of slot ``t``
        (index 0 unused, slots are 1-based as in the paper).
    x:
        Fractional assignment ``(job_id, slot) -> value`` (zeros omitted).
    """

    model: ActiveTimeModel
    objective: float
    y: np.ndarray
    x: dict[tuple[int, int], float]

    # ------------------------------------------------------------------
    @property
    def instance(self) -> Instance:
        """The scheduled instance."""
        return self.model.instance

    @property
    def g(self) -> int:
        """Machine capacity."""
        return self.model.g

    @property
    def T(self) -> int:
        """Number of slots."""
        return self.model.T

    def open_slots(self) -> list[int]:
        """Slots with ``y_t > 0`` in increasing order."""
        return [t for t in range(1, self.T + 1) if self.y[t] > Y_TOL]

    # ------------------------------------------------------------------
    # Deadline bookkeeping (Section 3.1)
    # ------------------------------------------------------------------
    def distinct_deadlines(self) -> list[int]:
        """The sorted distinct deadlines ``t_{d_1} < ... < t_{d_l}``."""
        return sorted({j.integral_window()[1] for j in self.instance.jobs})

    def deadline_blocks(self) -> list[tuple[int, int]]:
        """Half-open slot ranges ``(t_{d_{i-1}} + 1, t_{d_i})`` per deadline.

        The dummy deadline ``t_{d_0}`` is the slot *before* the earliest slot
        with ``y_t > 0`` (so every open slot belongs to some block), clamped
        to at least 0.
        """
        deadlines = self.distinct_deadlines()
        opened = self.open_slots()
        start = (opened[0] - 1) if opened else 0
        blocks: list[tuple[int, int]] = []
        prev = min(start, deadlines[0] - 1) if deadlines else start
        for d in deadlines:
            blocks.append((prev + 1, d))
            prev = d
        return blocks

    def block_masses(self) -> list[float]:
        """``Y_i = sum of y_t over block i`` (Definition 6)."""
        return [
            float(self.y[a : b + 1].sum()) for a, b in self.deadline_blocks()
        ]


def solve_active_time_lp(
    instance: Instance,
    g: int,
    *,
    backend: str | SolverBackend | None = None,
) -> ActiveTimeLPSolution:
    """Solve ``LP1`` to optimality and package the solution.

    Parameters
    ----------
    backend:
        Solver backend name or instance (default: registry resolution —
        ``REPRO_LP_BACKEND`` env var, then ``scipy-highs``).

    Raises
    ------
    RuntimeError
        If the LP is infeasible — i.e. the instance itself cannot be
        scheduled even with every slot open (for example, more than ``g``
        unit jobs sharing a single-slot window) — or the backend fails.
    """
    model = build_active_time_model(instance, g)
    if model.num_vars == model.T == 0:
        return ActiveTimeLPSolution(
            model=model, objective=0.0, y=np.zeros(1), x={}
        )

    result = solve_ir(model.to_linear_program(), backend=backend)
    if result.status == "infeasible":
        raise RuntimeError(
            f"LP1 could not be solved ({result.backend}: infeasible); "
            f"the instance is infeasible for capacity g={g}"
        )
    result.require_optimal("LP1")
    y, x = model.extract(result.x)
    return ActiveTimeLPSolution(
        model=model, objective=float(result.objective), y=y, x=x
    )
