"""Unbounded-capacity placement: ``OPT_inf`` and the flexible→interval step.

Khandekar et al. (Theorem 4) show busy time with ``g = inf`` is solvable in
polynomial time via a dynamic program, and the paper's flexible-job pipeline
(Section 4.3) first runs that solver to pin every job's start time, producing
an interval instance whose span equals ``OPT_inf`` — a lower bound on the
bounded-``g`` optimum (Observation 3).

Here the placement is produced by the exact pseudo-polynomial MILP
(:func:`repro.lp.milp.solve_unbounded_span_exact`), which returns the same
optimal value with a different mechanism (see README's "Paper mapping",
§4.3).  Interval instances bypass the solver entirely; non-integral flexible
instances must supply their placement explicitly — exactly how the paper's
own Figure 9/10 constructions pin adversarial dynamic-program outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.intervals import span
from ..core.jobs import Instance, Job
from ..lp.milp import solve_unbounded_span_exact

__all__ = ["UnboundedPlacement", "opt_infinity", "pin_instance"]


@dataclass(frozen=True)
class UnboundedPlacement:
    """An optimal (or supplied) start-time choice for every job.

    Attributes
    ----------
    starts:
        ``job id -> start time``.
    busy_time:
        Span of the placed jobs — equals ``OPT_inf`` when produced by the
        exact solver.
    """

    starts: dict[int, float]
    busy_time: float


def opt_infinity(
    instance: Instance, *, backend: str | None = None
) -> UnboundedPlacement:
    """Compute ``OPT_inf`` and witnessing start times.

    * interval instances: starts are forced, ``OPT_inf = Sp(J)``;
    * integral flexible instances: exact MILP;
    * non-integral flexible instances: unsupported — pass explicit starts to
      :func:`pin_instance` instead (raises ``ValueError`` with that guidance).
    """
    if instance.n == 0:
        return UnboundedPlacement(starts={}, busy_time=0.0)
    if instance.all_interval:
        starts = {j.id: j.release for j in instance.jobs}
        return UnboundedPlacement(
            starts=starts, busy_time=span(j.window for j in instance.jobs)
        )
    if instance.is_integral:
        result = solve_unbounded_span_exact(instance, backend=backend)
        return UnboundedPlacement(
            starts={int(k): float(v) for k, v in result.witness["starts"].items()},
            busy_time=result.objective,
        )
    raise ValueError(
        "OPT_inf placement requires interval jobs or integral data; "
        "for non-integral flexible instances supply start times to "
        "pin_instance() explicitly"
    )


def pin_instance(
    instance: Instance, starts: Mapping[int, float]
) -> Instance:
    """Freeze every job at its chosen start, yielding an interval instance.

    This is Section 4.3's conversion: "adjust the release times and deadlines
    to artificially fix the position of each job to where it was scheduled in
    the solution for unbounded g".

    Raises ``KeyError`` for missing jobs and ``ValueError`` for starts outside
    a job's window.
    """
    pinned: list[Job] = []
    for job in instance.jobs:
        if job.id not in starts:
            raise KeyError(f"no start time supplied for job {job.id}")
        pinned.append(job.as_interval_job(starts[job.id]))
    return Instance(tuple(pinned))
