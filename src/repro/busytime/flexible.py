"""The flexible-job pipeline: pin via ``OPT_inf``, then pack intervals.

Section 4.3: convert the flexible instance to interval jobs by fixing every
job where the unbounded-capacity solution scheduled it, then run an interval
algorithm on the pinned instance.  With GREEDYTRACKING the overall guarantee
is 3 (Theorem 5); with the 2-approximation interval algorithms it is 4, and
Figure 10 shows that 4 is tight for that combination — the reason
GREEDYTRACKING is the paper's headline busy-time result.
"""

from __future__ import annotations

from typing import Callable, Literal, Mapping

from ..core.jobs import Instance
from ..core.validation import require_capacity
from .firstfit import first_fit
from .greedy_tracking import greedy_tracking
from .kumar_rudra import kumar_rudra
from .schedule import BusyTimeSchedule
from .two_approx import chain_peeling_two_approx
from .unbounded import opt_infinity, pin_instance

__all__ = ["schedule_flexible", "INTERVAL_ALGORITHMS", "IntervalAlgorithm"]

IntervalAlgorithm = Literal[
    "greedy_tracking", "first_fit", "chain_peeling", "kumar_rudra"
]

#: Registry of interval-job packers usable as the pipeline's second stage.
INTERVAL_ALGORITHMS: dict[str, Callable[[Instance, int], BusyTimeSchedule]] = {
    "greedy_tracking": greedy_tracking,
    "first_fit": first_fit,
    "chain_peeling": chain_peeling_two_approx,
    "kumar_rudra": kumar_rudra,
}


def schedule_flexible(
    instance: Instance,
    g: int,
    *,
    algorithm: IntervalAlgorithm = "greedy_tracking",
    starts: Mapping[int, float] | None = None,
    backend: str | None = None,
) -> BusyTimeSchedule:
    """Schedule a (possibly flexible) instance for bounded ``g``.

    Parameters
    ----------
    algorithm:
        Interval packer for the second stage.  ``"greedy_tracking"`` gives
        the paper's 3-approximation (Theorem 5); the 2-approximate interval
        algorithms give 4 overall (Theorem 10).
    starts:
        Optional explicit placement overriding the ``OPT_inf`` solver —
        required for non-integral flexible instances, and how the paper's
        adversarial figures pin dynamic-program outputs.
    backend:
        MILP backend for the ``OPT_inf`` pinning solve (only reached on
        flexible instances without explicit ``starts``).

    The returned schedule's ``starts`` record the chosen placement; bundle
    jobs are the pinned interval copies.
    """
    require_capacity(g)
    if algorithm not in INTERVAL_ALGORITHMS:
        raise ValueError(
            f"unknown interval algorithm {algorithm!r}; "
            f"choose from {sorted(INTERVAL_ALGORITHMS)}"
        )
    if instance.n == 0:
        return BusyTimeSchedule.from_bundle_jobs(instance, g, [])

    if starts is None:
        starts = opt_infinity(instance, backend=backend).starts
    pinned = pin_instance(instance, starts)  # KeyError names a missing job
    packed = INTERVAL_ALGORITHMS[algorithm](pinned, g)
    return BusyTimeSchedule(
        instance=instance,
        g=g,
        bundles=packed.bundles,
        starts={j.id: starts[j.id] for j in instance.jobs},
    )
