"""Right-shifting preprocessing of an optimal LP solution (Section 3.1).

The rounding algorithm wants the fractional openings pushed as late as
possible within each deadline block: for block ``i`` ending at deadline
``t_{d_i}`` with mass ``Y_i`` (Definition 6), the right-shifted solution
opens slots ``t_{d_i} - floor(Y_i) + 1 .. t_{d_i}`` fully, puts the remainder
``Y_i - floor(Y_i)`` on slot ``t_{d_i} - floor(Y_i)``, and closes everything
earlier in the block.  Lemma 3 proves the result still admits a feasible
fractional assignment (``LP2``).

Slot classification (Section 3):

* *fully open*  — ``y_t = 1``,
* *half open*   — ``1/2 <= y_t < 1``,
* *barely open* — ``0 < y_t < 1/2``,
* *closed*      — ``y_t = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lp.model import build_active_time_model
from ..lp.solve import ActiveTimeLPSolution
from ..solvers import SolverBackend, solve_ir

__all__ = [
    "RightShiftedSolution",
    "right_shift",
    "snap",
    "SNAP_TOL",
]

#: LP solvers return values like ``0.9999999997``; anything within this
#: tolerance of an integer (or of 1/2 in comparisons) is snapped.
SNAP_TOL = 1e-6


def snap(v: float) -> float:
    """Round ``v`` to the nearest integer when within :data:`SNAP_TOL`."""
    r = round(v)
    return float(r) if abs(v - r) <= SNAP_TOL else float(v)


@dataclass(frozen=True)
class RightShiftedSolution:
    """The right-shifted fractional solution (``LP2`` structure).

    Attributes
    ----------
    lp:
        The optimal LP solution this was derived from.
    y:
        Right-shifted openings, 1-based like :attr:`ActiveTimeLPSolution.y`.
    blocks:
        Deadline blocks ``(first_slot, deadline)`` shared with the LP object.
    masses:
        Block masses ``Y_i`` (identical to the LP's, by construction).
    """

    lp: ActiveTimeLPSolution
    y: np.ndarray
    blocks: tuple[tuple[int, int], ...]
    masses: tuple[float, ...]

    @property
    def objective(self) -> float:
        """Total fractional mass — unchanged from the LP optimum."""
        return float(self.y[1:].sum())

    def fractional_slot_of_block(self, i: int) -> tuple[int, float] | None:
        """The (slot, value) carrying block ``i``'s fractional remainder."""
        a, b = self.blocks[i]
        mass = snap(self.masses[i])
        frac = mass - int(mass)
        if frac <= 0.0:
            return None
        slot = b - int(mass)
        return (slot, frac) if slot >= a else None

    def is_feasible_fractional(
        self, *, backend: str | SolverBackend | None = None
    ) -> bool:
        """Check Lemma 3: a feasible fractional assignment exists for this ``y``.

        Solves the feasibility program ``LP2`` — the model's IR with a
        zero objective and the ``y`` variables pinned to the shifted
        values — on any registered backend.
        """
        model = build_active_time_model(self.lp.instance, self.lp.g)
        if model.num_vars == 0:
            return True
        lp = model.to_linear_program().as_feasibility()
        lb, ub = lp.bounds_arrays()
        for t in range(1, model.T + 1):
            v = min(1.0, max(0.0, float(self.y[t])))
            lb[t - 1] = ub[t - 1] = v
        result = solve_ir(lp.with_bounds(lb, ub), backend=backend)
        return result.ok


def right_shift(lp: ActiveTimeLPSolution) -> RightShiftedSolution:
    """Apply the Section-3.1 transformation to an optimal LP solution."""
    blocks = tuple(lp.deadline_blocks())
    masses = tuple(snap(m) for m in lp.block_masses())
    y = np.zeros_like(lp.y)
    for (a, b), mass in zip(blocks, masses):
        if mass <= 0.0:
            continue
        whole = int(mass)
        frac = snap(mass - whole)
        if whole > b - a + 1:
            raise RuntimeError(
                f"block [{a},{b}] cannot carry mass {mass}; LP solution corrupt"
            )
        for t in range(b - whole + 1, b + 1):
            y[t] = 1.0
        if frac > 0.0:
            y[b - whole] = frac
    return RightShiftedSolution(lp=lp, y=y, blocks=blocks, masses=masses)
