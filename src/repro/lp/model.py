"""Sparse construction of the active-time integer program and its relaxation.

Section 3 of the paper introduces the natural IP::

    min  sum_t y_t
    s.t. x_{t,j} <= y_t                       for all slots t, jobs j
         sum_j x_{t,j} <= g * y_t             for all slots t
         sum_t x_{t,j} >= p_j                 for all jobs j
         y_t, x_{t,j} in {0, 1};  x_{t,j} = 0 outside j's window

``LP1`` relaxes the integrality to ``0 <= y_t <= 1`` and ``x_{t,j} >= 0``.
This module builds the constraint matrices once and emits them as a
backend-neutral :class:`~repro.solvers.ir.LinearProgram`
(:meth:`ActiveTimeModel.to_linear_program`), so the same assembled system
serves the relaxation, the exact MILP, and every registered solver backend.

Variable layout: ``y_t`` occupies column ``t - 1`` for ``t = 1..T``; the
``x_{t,j}`` variables for feasible ``(job, slot)`` pairs follow, in job-major
order.  Infeasible pairs are simply never materialized (equivalent to pinning
them to zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..core.jobs import Instance
from ..core.validation import require_capacity, require_integral
from ..solvers import LinearProgram

__all__ = ["ActiveTimeModel", "build_active_time_model"]


@dataclass(frozen=True)
class ActiveTimeModel:
    """The assembled constraint system ``A_ub @ z <= b_ub`` plus metadata.

    Attributes
    ----------
    instance, g:
        The inputs the model was built from.
    T:
        Number of slots; ``y`` variables are columns ``0..T-1``.
    num_vars:
        Total number of columns (``T`` + number of feasible pairs).
    a_ub, b_ub:
        Inequality system covering all three constraint families.
    objective:
        Cost vector (1 on every ``y`` column, 0 on every ``x`` column).
    x_index:
        Column of ``x_{t,j}`` keyed by ``(job_id, slot)``.
    """

    instance: Instance
    g: int
    T: int
    num_vars: int
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    objective: np.ndarray
    x_index: dict[tuple[int, int], int]

    def to_linear_program(self, *, integral: bool = False) -> LinearProgram:
        """Emit the backend-neutral IR for this model.

        ``integral=False`` is ``LP1`` (the Section-3 relaxation);
        ``integral=True`` marks the ``y`` columns binary — the exact
        formulation (``x`` stays continuous; see :mod:`repro.lp.milp`
        for why that is sufficient).
        """
        integrality = np.zeros(self.num_vars)
        if integral:
            integrality[: self.T] = 1
        return LinearProgram.build(
            self.objective,
            a_ub=self.a_ub,
            b_ub=self.b_ub,
            lb=np.zeros(self.num_vars),
            ub=np.ones(self.num_vars),
            integrality=integrality,
            label=f"active-time {'IP' if integral else 'LP1'} "
            f"(n={self.instance.n}, T={self.T}, g={self.g})",
        )

    def extract(
        self, z: np.ndarray
    ) -> tuple[np.ndarray, dict[tuple[int, int], float]]:
        """Split a solution vector into ``(y, x)`` with 1-based ``y`` slots.

        Returns
        -------
        y:
            Array of length ``T + 1``; entry ``t`` is ``y_t`` (index 0 unused).
        x:
            Mapping ``(job_id, slot) -> value`` for nonzero assignments.
        """
        y = np.zeros(self.T + 1)
        y[1:] = z[: self.T]
        x = {
            key: float(z[col])
            for key, col in self.x_index.items()
            if z[col] > 1e-12
        }
        return y, x


def build_active_time_model(instance: Instance, g: int) -> ActiveTimeModel:
    """Assemble the Section-3 IP/LP for ``instance`` with capacity ``g``."""
    require_integral(instance, "active-time LP")
    require_capacity(g)
    T = instance.horizon
    jobs = instance.jobs
    # Integral (checked above), so rounding recovers the exact integers.
    release = np.rint([job.release for job in jobs]).astype(np.int64)
    deadline = np.rint([job.deadline for job in jobs]).astype(np.int64)
    lengths = np.rint([job.length for job in jobs])

    # Pair k is the k-th feasible (job, slot) pair in job-major order; its
    # x variable is column T + k.
    width = deadline - release
    m = int(width.sum())
    offset = np.cumsum(width) - width  # pairs of the jobs before job k
    slot = np.arange(m) + np.repeat(release + 1 - offset, width)
    x_col = T + np.arange(m)
    ids = np.repeat([job.id for job in jobs], width).astype(np.int64)
    x_index = dict(zip(zip(ids.tolist(), slot.tolist()), range(T, T + m)))
    num_vars = T + m

    # The rows, each listing its columns in increasing order (CSR layout):
    # (1) x_{t,j} - y_t <= 0 for every pair: y_t, then x_{t,j};
    pair_cols = np.empty(2 * m, dtype=np.int64)
    pair_cols[0::2] = slot - 1
    pair_cols[1::2] = x_col
    pair_vals = np.tile([-1.0, 1.0], m)
    # (2) -g y_t + sum_j x_{t,j} <= 0 for every slot: y_t, then the slot's
    #     pairs in column order (a stable sort keeps job-major order);
    per_slot = np.bincount(slot, minlength=T + 1)[1:]
    y_at = np.cumsum(1 + per_slot) - (1 + per_slot)
    is_y = np.zeros(T + m, dtype=bool)
    is_y[y_at] = True
    slot_cols = np.empty(T + m, dtype=np.int64)
    slot_cols[is_y] = np.arange(T)
    slot_cols[~is_y] = T + np.argsort(slot, kind="stable")
    slot_vals = np.where(is_y, -float(g), 1.0)
    # (3) -sum_t x_{t,j} <= -p_j for every job (coverage): its own pairs.
    row_sizes = np.concatenate((np.full(m, 2), 1 + per_slot, width))
    indptr = np.concatenate(([0], np.cumsum(row_sizes)))
    a_ub = sparse.csr_matrix(
        (
            np.concatenate((pair_vals, slot_vals, np.full(m, -1.0))),
            np.concatenate((pair_cols, slot_cols, x_col)),
            indptr,
        ),
        shape=(len(row_sizes), num_vars),
    )
    b_ub = np.concatenate((np.zeros(m + T), -lengths))
    objective = np.zeros(num_vars)
    objective[:T] = 1.0

    return ActiveTimeModel(
        instance=instance,
        g=g,
        T=T,
        num_vars=num_vars,
        a_ub=a_ub,
        b_ub=b_ub,
        objective=objective,
        x_index=x_index,
    )
