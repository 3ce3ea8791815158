"""Exact oracles and proof checkers the tests and benchmarks compare against.

Nothing a user runs calls these.  They are reference implementations
(exponential searches, brute-force optima and a heavyweight MILP) and
executable forms of the paper's proof constructions (Theorem 5's witness
``Q_i``), kept outside ``src/`` so the library carries only what its
commands run.  Both ``tests/`` and ``benchmarks/`` import this module:
``pytest.ini`` puts ``tests/`` on ``sys.path``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from repro.activetime.exact import lower_bound_mass
from repro.activetime.schedule import ActiveTimeSchedule, schedule_from_slots
from repro.busytime.schedule import Bundle, BusyTimeSchedule
from repro.busytime.unbounded import pin_instance
from repro.core.intervals import coverage_counts, span
from repro.core.jobs import TIME_EPS, Instance, Job
from repro.core.validation import (
    require_capacity,
    require_integral,
    require_interval_jobs,
)
from repro.flow.feasibility import ActiveTimeFeasibility
from repro.lp.milp import MilpResult, _run_milp
from repro.solvers import SolverBackend


# ----------------------------------------------------------------------
# Instance families (footnote 1's special cases)
# ----------------------------------------------------------------------
def _strictly_contains(outer: Job, inner: Job) -> bool:
    """True when ``inner``'s window is strictly inside ``outer``'s window."""
    return (
        outer.release <= inner.release + TIME_EPS
        and inner.deadline <= outer.deadline + TIME_EPS
        and (
            outer.release < inner.release - TIME_EPS
            or inner.deadline < outer.deadline - TIME_EPS
        )
    )


def _windows_cross(a: Job, b: Job) -> bool:
    """True when the windows overlap but neither contains the other."""
    lo = max(a.release, b.release)
    hi = min(a.deadline, b.deadline)
    if lo >= hi - TIME_EPS:  # disjoint
        return False
    a_in_b = b.release <= a.release + TIME_EPS and a.deadline <= b.deadline + TIME_EPS
    b_in_a = a.release <= b.release + TIME_EPS and b.deadline <= a.deadline + TIME_EPS
    return not (a_in_b or b_in_a)


def is_proper(instance: Instance) -> bool:
    """True when no job window strictly contains another (``proper`` instances).

    Flammini et al. show greedy-by-release-time is 2-approximate on proper
    interval instances; the paper's ``Q_i`` extraction in Theorem 5 reduces
    each bundle to a proper subset first.
    """
    for a, b in itertools.combinations(instance.jobs, 2):
        if _strictly_contains(a, b) or _strictly_contains(b, a):
            return False
    return True


def is_clique(instance: Instance) -> bool:
    """True when some time point is contained in every job window."""
    if not instance.jobs:
        return True
    lo = max(j.release for j in instance.jobs)
    hi = min(j.deadline for j in instance.jobs)
    return lo < hi - TIME_EPS


def is_laminar(instance: Instance) -> bool:
    """True when any two windows are disjoint or nested (laminar family)."""
    for a, b in itertools.combinations(instance.jobs, 2):
        if _windows_cross(a, b):
            return False
    return True


def random_laminar_instance(
    depth: int,
    fanout: int,
    *,
    root_span: float = 64.0,
    rng: np.random.Generator | int | None = None,
) -> Instance:
    """Laminar interval jobs: any two windows are nested or disjoint.

    Builds a recursive hierarchy: each interval spawns ``fanout`` disjoint
    children occupying random sub-ranges.
    """
    gen = np.random.default_rng(rng)
    jobs: list[Job] = []

    def build(a: float, b: float, level: int) -> None:
        jobs.append(
            Job(release=a, deadline=b, length=b - a, id=len(jobs))
        )
        if level >= depth:
            return
        cuts = np.sort(gen.uniform(a, b, size=2 * fanout))
        for k in range(fanout):
            lo, hi = float(cuts[2 * k]), float(cuts[2 * k + 1])
            if hi - lo > (b - a) * 0.02:
                build(lo, hi, level + 1)

    build(0.0, root_span, 0)
    return Instance(tuple(jobs))


def random_integral_interval_instance(
    n: int, horizon: float, *, rng: np.random.Generator
) -> Instance:
    """Interval jobs with integral lengths in ``[1, 4]`` and integral
    releases, inside ``[0, horizon]``: the exact MILPs' common ground."""
    jobs = []
    for i in range(n):
        p = float(rng.integers(1, 5))
        r = float(rng.integers(0, int(horizon - p) + 1))
        jobs.append(Job(release=r, deadline=r + p, length=p, id=i))
    return Instance(tuple(jobs))


# ----------------------------------------------------------------------
# Raw demand at a point: the brute-force |A(t)| (Definition 11)
# ----------------------------------------------------------------------
def active_jobs_at(instance: Instance, t: float) -> list[Job]:
    """Jobs whose ``[r_j, d_j)`` contains time ``t`` (the set ``A(t)``)."""
    return [j for j in instance.jobs if j.is_live_at(t)]


def raw_demand_at(instance: Instance, t: float) -> int:
    """``|A(t)|``: number of job windows covering time ``t``."""
    return len(active_jobs_at(instance, t))


# ----------------------------------------------------------------------
# Tracks and Theorem 5's proper witness set
# ----------------------------------------------------------------------
def is_track(jobs: Iterable[Job]) -> bool:
    """True when the jobs' windows are pairwise disjoint (a valid track)."""
    windows = sorted(j.window for j in jobs)
    for (a1, b1), (a2, b2) in zip(windows, windows[1:]):
        if a2 < b1 - TIME_EPS:
            return False
    return True


def track_length(jobs: Iterable[Job]) -> float:
    """Total processing length ``ℓ(T)`` of a track."""
    return sum(j.length for j in jobs)


def proper_witness_set(bundle_jobs: Sequence[Job]) -> list[Job]:
    """The Theorem-5 witness ``Q_i``: same span, at most 2 jobs live anywhere.

    Construction, as in the proof:

    1. drop any job whose window is contained in another's (leaving a
       *proper* set);
    2. sweep by release time, repeatedly keeping the live job with the
       latest deadline ("the last one") and discarding the rest.

    The result ``Q`` satisfies ``Sp(Q) = Sp(B)`` and ``max overlap <= 2``;
    both are asserted by the test-suite on random bundles.
    """
    jobs = list(bundle_jobs)
    if not jobs:
        return []

    # Step 1: remove dominated (contained) windows.
    proper: list[Job] = []
    for j in jobs:
        contained = any(
            k is not j
            and k.release <= j.release + TIME_EPS
            and j.deadline <= k.deadline + TIME_EPS
            and (k.window_length > j.window_length + TIME_EPS or k.id < j.id)
            for k in jobs
        )
        if not contained:
            proper.append(j)

    # Step 2: sweep, keeping the live job with the latest deadline.  All
    # remaining pool jobs have deadline beyond d_max, so "live at d_max"
    # reduces to "released by d_max"; when coverage has a gap, jump d_max to
    # the next release.
    proper.sort(key=lambda j: (j.release, j.deadline, j.id))
    chosen: list[Job] = []
    pool = proper
    d_max = -float("inf")
    while pool:
        if not any(j.release <= d_max + TIME_EPS for j in pool):
            d_max = min(j.release for j in pool)
        live = [j for j in pool if j.release <= d_max + TIME_EPS]
        last = max(live, key=lambda j: (j.deadline, j.id))
        chosen.append(last)
        d_max = last.deadline
        pool = [j for j in pool if j.deadline > d_max + TIME_EPS]
    chosen.sort(key=lambda j: j.release)
    return chosen


# ----------------------------------------------------------------------
# Brute-force optima (tiny instances)
# ----------------------------------------------------------------------
def brute_force_active_time(
    instance: Instance, g: int, *, max_horizon: int = 16
) -> ActiveTimeSchedule:
    """Optimal schedule by enumerating slot subsets (tiny instances only).

    Searches subsets of ``{1..T}`` in increasing cardinality, pruned by the
    mass lower bound ``ceil(P / g)``, and returns the first feasible one.
    Guarded by ``max_horizon`` because the search is ``O(2^T)``.
    """
    require_integral(instance)
    require_capacity(g)
    if instance.n == 0:
        return ActiveTimeSchedule(instance, g, tuple(), {})
    T = instance.horizon
    if T > max_horizon:
        raise ValueError(
            f"brute force limited to horizon {max_horizon}, instance has {T}"
        )
    oracle = ActiveTimeFeasibility(instance, g)
    all_slots = list(range(1, T + 1))
    lo = lower_bound_mass(instance, g)
    for k in range(lo, T + 1):
        for subset in itertools.combinations(all_slots, k):
            if oracle.is_feasible(subset):
                return schedule_from_slots(instance, g, subset, oracle=oracle)
    raise ValueError(f"instance infeasible for g={g} even with all slots open")


def _partitions(items: list[Job]) -> Iterator[list[list[Job]]]:
    """All set partitions of ``items`` (restricted-growth enumeration)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def brute_force_busy_time_interval(
    instance: Instance, g: int, *, max_jobs: int = 9
) -> BusyTimeSchedule:
    """Optimal interval busy time by enumerating all bundle partitions.

    Exponential (Bell numbers); guarded by ``max_jobs``.  Exists purely to
    cross-validate the MILP.
    """
    require_interval_jobs(instance)
    require_capacity(g)
    if instance.n == 0:
        return BusyTimeSchedule.from_bundle_jobs(instance, g, [])
    if instance.n > max_jobs:
        raise ValueError(
            f"brute force limited to {max_jobs} jobs, instance has {instance.n}"
        )

    def feasible(group: list[Job]) -> bool:
        cov = coverage_counts([j.window for j in group])
        return all(c <= g for _, c in cov)

    best: BusyTimeSchedule | None = None
    for partition in _partitions(list(instance.jobs)):
        if not all(feasible(group) for group in partition):
            continue
        candidate = BusyTimeSchedule.from_bundle_jobs(instance, g, partition)
        if best is None or candidate.total_busy_time < best.total_busy_time:
            best = candidate
    assert best is not None  # singleton bundles are always feasible
    return best


# ----------------------------------------------------------------------
# Busy time, flexible jobs: the exact MILP (tiny instances)
# ----------------------------------------------------------------------
def solve_busy_time_flexible_exact(
    instance: Instance,
    g: int,
    *,
    max_machines: int | None = None,
    backend: str | SolverBackend | None = None,
) -> MilpResult:
    """Exact busy time for flexible jobs with bounded ``g`` (integral data).

    Variables couple start-time choice, machine assignment and per-slot
    busy indicators, so keep ``n`` and ``T`` small (``n <= 10``,
    ``T <= 40`` is comfortable).

    Witness: ``{"starts": {job_id: start}, "machines": {job_id: machine}}``.
    """
    require_integral(instance, "flexible busy-time exact")
    require_capacity(g)
    n = instance.n
    if n == 0:
        return MilpResult(0.0, {"starts": {}, "machines": {}})
    M = min(max_machines or n, n)
    T = instance.horizon

    w_col: dict[tuple[int, int, int], int] = {}  # (job_pos, start, machine)
    col = 0
    for k, job in enumerate(instance.jobs):
        r, d = job.integral_window()
        p = job.integral_length()
        for s in range(r, d - p + 1):
            for m in range(min(k + 1, M)):
                w_col[(k, s, m)] = col
                col += 1
    u_col: dict[tuple[int, int], int] = {}
    for m in range(M):
        for t in range(1, T + 1):
            u_col[(m, t)] = col
            col += 1
    num_vars = col

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lb: list[float] = []
    ub: list[float] = []
    row = 0

    # one (start, machine) per job
    for k, job in enumerate(instance.jobs):
        r, d = job.integral_window()
        p = job.integral_length()
        for s in range(r, d - p + 1):
            for m in range(min(k + 1, M)):
                rows.append(row)
                cols.append(w_col[(k, s, m)])
                vals.append(1.0)
        lb.append(1.0)
        ub.append(1.0)
        row += 1

    # capacity + busy:  sum_{(k,s) covering t on m} w <= g * u[m,t]
    for m in range(M):
        for t in range(1, T + 1):
            touched = False
            for k, job in enumerate(instance.jobs):
                if m >= min(k + 1, M):
                    continue
                r, d = job.integral_window()
                p = job.integral_length()
                for s in range(max(r, t - p), min(d - p, t - 1) + 1):
                    rows.append(row)
                    cols.append(w_col[(k, s, m)])
                    vals.append(1.0)
                    touched = True
            if not touched:
                continue
            rows.append(row)
            cols.append(u_col[(m, t)])
            vals.append(-float(g))
            lb.append(-np.inf)
            ub.append(0.0)
            row += 1

    a = sparse.coo_matrix((vals, (rows, cols)), shape=(row, num_vars)).tocsr()
    c_vec = np.zeros(num_vars)
    for (m, t), cc in u_col.items():
        c_vec[cc] = 1.0

    z = _run_milp(
        c=c_vec,
        a=a,
        lb=np.asarray(lb),
        ub=np.asarray(ub),
        integrality=np.ones(num_vars),
        backend=backend,
        label=f"busy-time flexible exact (g={g})",
    )
    starts: dict[int, float] = {}
    machines: dict[int, int] = {}
    for (k, s, m), cc in w_col.items():
        if z[cc] > 0.5:
            jid = instance.jobs[k].id
            starts[jid] = float(s)
            machines[jid] = m
    return MilpResult(float(c_vec @ z), {"starts": starts, "machines": machines})


def exact_busy_time_flexible(instance: Instance, g: int) -> BusyTimeSchedule:
    """Optimal busy-time schedule for integral flexible jobs (MILP; tiny n)."""
    require_capacity(g)
    if instance.n == 0:
        return BusyTimeSchedule.from_bundle_jobs(instance, g, [])
    result = solve_busy_time_flexible_exact(instance, g)
    starts = {int(k): float(v) for k, v in result.witness["starts"].items()}
    machines = {int(k): int(v) for k, v in result.witness["machines"].items()}
    pinned = pin_instance(instance, starts)
    groups: dict[int, list[Job]] = {}
    for job in pinned.jobs:
        groups.setdefault(machines[job.id], []).append(job)
    return BusyTimeSchedule(
        instance=instance,
        g=g,
        bundles=tuple(Bundle(tuple(v)) for _, v in sorted(groups.items())),
        starts=starts,
    )


# ----------------------------------------------------------------------
# OPT_∞ by exhaustive block search (checks the MILP behind ``opt_infinity``)
# ----------------------------------------------------------------------
# An optimal solution's busy time is a union of disjoint maximal blocks
# ``[a, b)`` with integer endpoints; job ``j`` can be served by block
# ``[a, b)`` iff ``max(a, r_j) + p_j <= min(b, d_j)``.  Searching left to
# right over blocks with memoization on ``(frontier, uncovered-job-set)``
# is exact and exponential only in ``n``.  Pruning: the next block must
# start by the minimum latest start among uncovered jobs, block ends beyond
# the last relevant deadline never help, and a running upper bound (the
# earliest-fit heuristic) cuts branches.
def _fits(job: Job, a: int, b: int) -> bool:
    """Can ``job`` run inside the block ``[a, b)``?"""
    r, d = job.integral_window()
    p = job.integral_length()
    return max(a, r) + p <= min(b, d)


def earliest_fit_span(instance: Instance) -> tuple[float, dict[int, float]]:
    """Upper-bound heuristic: schedule every job as early as possible.

    Returns ``(span, starts)``; the span upper-bounds ``OPT_inf`` and seeds
    the branch-and-bound.
    """
    require_integral(instance, "earliest fit")
    starts = {j.id: float(j.release) for j in instance.jobs}
    value = span(
        (s, s + instance.job_by_id(jid).length) for jid, s in starts.items()
    )
    return value, starts


def span_search_exact(
    instance: Instance, *, max_jobs: int = 14
) -> tuple[float, dict[int, float]]:
    """Exact ``OPT_inf`` via memoized block search (integral instances).

    Returns ``(optimal span, starts)``.  Guarded by ``max_jobs`` because the
    memo key contains the uncovered-job set.

    Raises ``ValueError`` beyond the guard or for non-integral data.
    """
    require_integral(instance, "span search")
    n = instance.n
    if n == 0:
        return 0.0, {}
    if n > max_jobs:
        raise ValueError(
            f"span search limited to {max_jobs} jobs, instance has {n}"
        )

    jobs = list(instance.jobs)
    T = instance.horizon
    upper, _ = earliest_fit_span(instance)

    @lru_cache(maxsize=None)
    def solve(frontier: int, uncovered: frozenset[int]) -> float:
        """Min total block length covering ``uncovered`` with blocks in
        ``[frontier, T]``."""
        if not uncovered:
            return 0.0
        # the next block must start no later than the tightest latest start
        latest_starts = [
            jobs[k].integral_window()[1] - jobs[k].integral_length()
            for k in uncovered
        ]
        a_max = min(latest_starts)
        if a_max < frontier:
            return float("inf")
        best = float("inf")
        # candidate starts: every integer in range (pseudo-polynomial but
        # unconditionally exact; instances at cross-validation sizes keep
        # this cheap)
        for a in range(a_max, frontier - 1, -1):
            # grow the block endpoint; each growth step changes the covered
            # set, so only endpoints where some job's feasibility flips
            # matter: b in {max(a, r_j) + p_j} and {d_j}
            ends = sorted(
                {
                    min(
                        max(a, jobs[k].integral_window()[0])
                        + jobs[k].integral_length(),
                        T,
                    )
                    for k in uncovered
                }
                | {jobs[k].integral_window()[1] for k in uncovered}
            )
            for b in ends:
                if b <= a:
                    continue
                cost = float(b - a)
                if cost >= best:
                    break  # ends sorted ascending; later ends cost more
                covered = frozenset(
                    k for k in uncovered if _fits(jobs[k], a, b)
                )
                if not covered:
                    continue
                rest = solve(b, uncovered - covered)
                if cost + rest < best:
                    best = cost + rest
        return best

    all_jobs = frozenset(range(n))
    value = solve(0, all_jobs)
    if value > upper + 1e-9:  # pragma: no cover - earliest fit is feasible
        value = upper

    # Reconstruct starts by replaying the DP decisions.
    starts: dict[int, float] = {}
    frontier, uncovered = 0, all_jobs
    while uncovered:
        target = solve(frontier, uncovered)
        found = False
        latest_starts = [
            jobs[k].integral_window()[1] - jobs[k].integral_length()
            for k in uncovered
        ]
        a_max = min(latest_starts)
        for a in range(frontier, a_max + 1):
            ends = sorted(
                {
                    min(
                        max(a, jobs[k].integral_window()[0])
                        + jobs[k].integral_length(),
                        T,
                    )
                    for k in uncovered
                }
                | {jobs[k].integral_window()[1] for k in uncovered}
            )
            for b in ends:
                if b <= a:
                    continue
                covered = frozenset(
                    k for k in uncovered if _fits(jobs[k], a, b)
                )
                if not covered:
                    continue
                rest = solve(b, uncovered - covered)
                if abs((b - a) + rest - target) < 1e-9:
                    for k in covered:
                        job = jobs[k]
                        r, d = job.integral_window()
                        starts[job.id] = float(
                            min(max(a, r), d - job.integral_length())
                        )
                    frontier, uncovered = b, uncovered - covered
                    found = True
                    break
            if found:
                break
        if not found:  # pragma: no cover - defensive
            raise RuntimeError("failed to reconstruct an optimal block chain")
    return value, starts
