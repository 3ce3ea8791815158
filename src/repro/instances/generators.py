"""Random instance families for tests and benchmarks.

All generators are deterministic given a :class:`numpy.random.Generator`
seed, return :class:`repro.core.jobs.Instance` objects and cover the regimes
the paper's analysis distinguishes: integral active-time instances, interval
jobs, flexible jobs, unit jobs, and the structured special cases discussed in
footnote 1 (proper instances and cliques).
"""

from __future__ import annotations

import numpy as np

from ..core.jobs import Instance, Job

__all__ = [
    "random_active_time_instance",
    "random_unit_instance",
    "random_interval_instance",
    "random_flexible_instance",
    "random_proper_instance",
    "random_clique_instance",
    "tight_window_instance",
]


def _rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_active_time_instance(
    n: int,
    horizon: int,
    *,
    max_length: int = 4,
    min_slack: int = 0,
    max_slack: int = 4,
    rng: np.random.Generator | int | None = None,
) -> Instance:
    """Integral jobs with windows inside ``[0, horizon]`` (active-time model).

    Lengths are uniform in ``[1, max_length]`` and window slack uniform in
    ``[min_slack, max_slack]``, clipped to the horizon.
    """
    gen = _rng(rng)
    jobs = []
    for i in range(n):
        p = int(gen.integers(1, max_length + 1))
        slack = int(gen.integers(min_slack, max_slack + 1))
        width = min(p + slack, horizon)
        p = min(p, width)
        r = int(gen.integers(0, horizon - width + 1))
        jobs.append(Job(release=r, deadline=r + width, length=p, id=i))
    return Instance(tuple(jobs))


def random_unit_instance(
    n: int,
    horizon: int,
    *,
    rng: np.random.Generator | int | None = None,
) -> Instance:
    """Unit-length integral jobs (the Chang–Gabow–Khuller special case),
    each window at most 5 slots wide."""
    gen = _rng(rng)
    jobs = []
    for i in range(n):
        width = int(gen.integers(1, min(5, horizon) + 1))
        r = int(gen.integers(0, horizon - width + 1))
        jobs.append(Job(release=r, deadline=r + width, length=1, id=i))
    return Instance(tuple(jobs))


def random_interval_instance(
    n: int,
    horizon: float,
    *,
    max_length: float = 4.0,
    rng: np.random.Generator | int | None = None,
) -> Instance:
    """Interval jobs (rigid start times) with real-valued times."""
    gen = _rng(rng)
    jobs = []
    for i in range(n):
        p = float(gen.uniform(0.2, max_length))
        r = float(gen.uniform(0.0, horizon - p))
        jobs.append(Job(release=r, deadline=r + p, length=p, id=i))
    return Instance(tuple(jobs))


def random_flexible_instance(
    n: int,
    horizon: int,
    *,
    max_length: int = 4,
    rng: np.random.Generator | int | None = None,
) -> Instance:
    """Integral flexible jobs for the busy-time pipeline (Section 4.3),
    each with 1 to 6 slots of slack."""
    return random_active_time_instance(
        n,
        horizon,
        max_length=max_length,
        min_slack=1,
        max_slack=6,
        rng=rng,
    )


def random_proper_instance(
    n: int,
    horizon: float,
    *,
    rng: np.random.Generator | int | None = None,
) -> Instance:
    """Proper interval jobs: no window strictly contains another.

    Generated by sorting random left endpoints and assigning right endpoints
    in the same order (a classic proper-interval construction).
    """
    gen = _rng(rng)
    lefts = np.sort(gen.uniform(0.0, horizon * 0.6, size=n))
    rights = np.sort(gen.uniform(horizon * 0.4, horizon, size=n))
    jobs = []
    for i in range(n):
        a = float(lefts[i])
        b = float(max(rights[i], a + 0.1))
        jobs.append(Job(release=a, deadline=b, length=b - a, id=i))
    return Instance(tuple(jobs))


def random_clique_instance(
    n: int,
    horizon: float,
    *,
    rng: np.random.Generator | int | None = None,
) -> Instance:
    """Interval jobs all containing the midpoint (a clique instance)."""
    gen = _rng(rng)
    mid = horizon / 2.0
    jobs = []
    for i in range(n):
        a = float(gen.uniform(0.0, mid - 0.05))
        b = float(gen.uniform(mid + 0.05, horizon))
        jobs.append(Job(release=a, deadline=b, length=b - a, id=i))
    return Instance(tuple(jobs))


def tight_window_instance(
    n: int,
    g: int,
    *,
    rng: np.random.Generator | int | None = None,
) -> Instance:
    """Active-time stress family: ``g+1``-job groups squeezed into 2-slot windows.

    Random blend of the Section-3.5 integrality-gap structure — useful for
    exercising the rounding algorithm's barely-open machinery.
    """
    gen = _rng(rng)
    jobs: list[Job] = []
    t = 0
    while len(jobs) < n:
        group = int(gen.integers(2, g + 2))
        for _ in range(min(group, n - len(jobs))):
            jobs.append(
                Job(release=t, deadline=t + 2, length=1, id=len(jobs))
            )
        t += 2
    return Instance(tuple(jobs))


# ----------------------------------------------------------------------
# Sweep-facing registry
# ----------------------------------------------------------------------
#
# The engine's sweep driver iterates generator names from the command
# line; these adapters give every family the same ``(n, horizon, g,
# seed)`` signature so the grid code never special-cases one.

SWEEP_GENERATORS = {
    "active": lambda n, horizon, g, seed: random_active_time_instance(
        n, horizon, rng=seed
    ),
    "unit": lambda n, horizon, g, seed: random_unit_instance(
        n, horizon, rng=seed
    ),
    "tight": lambda n, horizon, g, seed: tight_window_instance(
        n, g, rng=seed
    ),
    "interval": lambda n, horizon, g, seed: random_interval_instance(
        n, horizon, rng=seed
    ),
    "flexible": lambda n, horizon, g, seed: random_flexible_instance(
        n, horizon, rng=seed
    ),
    "proper": lambda n, horizon, g, seed: random_proper_instance(
        n, horizon, rng=seed
    ),
    "clique": lambda n, horizon, g, seed: random_clique_instance(
        n, horizon, rng=seed
    ),
}

#: Which generator families produce valid inputs for each problem.
PROBLEM_GENERATORS = {
    "active": ("active", "unit", "tight"),
    "busy": ("interval", "flexible", "proper", "clique"),
}

__all__ += ["SWEEP_GENERATORS", "PROBLEM_GENERATORS"]
