"""Experiment sweeps: a grid of generators x algorithms x g values.

``build_sweep_tasks`` expands the grid deterministically (sorted cell
order, seeds derived from ``base_seed`` plus the cell index), so the
same arguments always produce byte-identical task digests — which is
what makes the result cache effective across runs.  ``run_sweep``
drives the grid through a :class:`~repro.engine.runner.BatchRunner`
and hands back results plus the aggregate table.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

from ..instances import PROBLEM_GENERATORS, SWEEP_GENERATORS
from ..solvers import resolve_backend
from .cache import ResultCache
from .registry import REGISTRY, backend_task_params
from .results import aggregate_table
from .runner import BatchRunner
from .workers import Task, TaskResult, make_task

__all__ = ["SweepGrid", "build_sweep_tasks", "run_sweep", "default_grid"]

#: Registry-backed algorithm defaults: cheap approximation algorithms only
#: (exact solvers are opt-in; they are tagged ``expensive``).
def _default_algorithms(problem: str) -> tuple[str, ...]:
    return tuple(
        spec.name
        for spec in REGISTRY.specs(problem)
        if "expensive" not in spec.capabilities
        and "unit-only" not in spec.capabilities
    )


@dataclass(frozen=True)
class SweepGrid:
    """One problem's slice of a sweep grid.

    ``backend`` routes every LP/MILP-based algorithm in the grid through
    the named :mod:`repro.solvers` backend; combinatorial algorithms
    ignore it (capability routing).  ``None`` keeps the default backend.
    """

    problem: str
    generators: tuple[str, ...]
    algorithms: tuple[str, ...]
    g_values: tuple[int, ...] = (2, 3)
    instances_per_cell: int = 3
    n: int = 10
    horizon: int = 20
    timeout: float | None = None
    backend: str | None = None

    def validate(self) -> None:
        if self.problem not in PROBLEM_GENERATORS:
            raise ValueError(
                f"unknown problem {self.problem!r}; "
                f"choose from {sorted(PROBLEM_GENERATORS)}"
            )
        allowed = PROBLEM_GENERATORS[self.problem]
        for gen in self.generators:
            if gen not in SWEEP_GENERATORS:
                raise ValueError(
                    f"unknown generator {gen!r}; "
                    f"choose from {sorted(SWEEP_GENERATORS)}"
                )
            if gen not in allowed:
                raise ValueError(
                    f"generator {gen!r} does not produce valid "
                    f"{self.problem!r} instances; choose from {allowed}"
                )
        for name in self.algorithms:
            REGISTRY.get(self.problem, name)  # raises KeyError if unknown
        if self.backend is not None:
            # Typos get the backend menu; capability needs are checked
            # per algorithm when tasks are expanded.
            resolve_backend(self.backend)

    def task_params(self, algorithm: str) -> dict[str, str]:
        """Per-task params for ``algorithm`` under this grid's backend.

        Delegates to :func:`~repro.engine.registry.backend_task_params`
        (non-strict: a grid legitimately mixes LP-based and
        combinatorial algorithms, the latter simply get no param).
        """
        return backend_task_params(
            self.problem, algorithm, self.backend, strict=False
        )


def default_grid(problem: str) -> SweepGrid:
    """The stock grid for one problem: two generator families, all cheap
    registered algorithms, two g values.

    Active-time defaults use g in (3, 4): the stock generator density
    (n=10 jobs on a 20-slot horizon) is routinely infeasible at g=2,
    and a default sweep should exercise solvers, not error paths.
    """
    generators = PROBLEM_GENERATORS[problem][:2]
    return SweepGrid(
        problem=problem,
        generators=generators,
        algorithms=_default_algorithms(problem),
        g_values=(3, 4) if problem == "active" else (2, 3),
    )


def build_sweep_tasks(
    grids: Sequence[SweepGrid],
    *,
    base_seed: int = 2014,
    limit: int | None = None,
) -> list[Task]:
    """Expand grids into a deterministic, content-addressed task list.

    The seed for each task is ``base_seed`` plus a stable offset from
    its position in the sorted grid expansion, so repeated invocations
    regenerate identical instances (and hence identical digests).
    """
    tasks: list[Task] = []
    if limit is not None and limit <= 0:
        return tasks
    for grid in grids:
        grid.validate()
        cells = [
            (gen, algorithm, g)
            for gen in grid.generators
            for algorithm in grid.algorithms
            for g in grid.g_values
        ]
        # The seed depends on (generator, g, rep) only — the same instance
        # is shared across the algorithms in a cell so their ratios are
        # comparable — so memoize generation rather than rebuilding the
        # identical instance once per algorithm.
        instances: dict[tuple[str, int, int], object] = {}
        for gen, algorithm, g in sorted(cells):
            for rep in range(grid.instances_per_cell):
                seed = _instance_seed(base_seed, gen, g, rep)
                key = (gen, g, rep)
                if key not in instances:
                    instances[key] = SWEEP_GENERATORS[gen](
                        grid.n, grid.horizon, g, seed
                    )
                instance = instances[key]
                tasks.append(
                    make_task(
                        index=len(tasks),
                        problem=grid.problem,
                        algorithm=algorithm,
                        g=g,
                        instance=instance,
                        params=grid.task_params(algorithm),
                        meta={
                            "generator": gen,
                            "seed": seed,
                            "rep": rep,
                            "n": grid.n,
                            "horizon": grid.horizon,
                        },
                        timeout=grid.timeout,
                    )
                )
                if limit is not None and len(tasks) >= limit:
                    return tasks
    return tasks


def _instance_seed(base_seed: int, generator: str, g: int, rep: int) -> int:
    """Stable per-instance seed independent of the algorithm axis.

    Uses the full :func:`hash_str` value: folding it down (an earlier
    ``% 97``) let two generator names collide and silently share
    instances — and hence digests — across supposedly distinct
    families.  The 7919 stride keeps distinct generators at least a
    whole (g, rep) block apart.
    """
    return base_seed + 7919 * hash_str(generator) + 101 * g + rep


def hash_str(text: str) -> int:
    """Deterministic (non-salted) string hash, stable across processes."""
    value = 0
    for ch in text:
        value = (value * 131 + ord(ch)) % 1_000_003
    return value


@dataclass
class SweepOutcome:
    """Everything a sweep run produces."""

    tasks: list[Task]
    results: list[TaskResult]
    cache_hits: int
    table: str = ""
    errors: int = 0
    elapsed: float = 0.0

    @property
    def summary(self) -> str:
        return (
            f"tasks: {len(self.tasks)}, cache hits: {self.cache_hits}, "
            f"errors: {self.errors}, wall time: {self.elapsed:.2f}s"
        )


def run_sweep(
    grids: Sequence[SweepGrid],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    base_seed: int = 2014,
    limit: int | None = None,
    title: str = "sweep aggregate",
    on_result: Callable[[TaskResult], None] | None = None,
    dispatcher=None,
) -> SweepOutcome:
    """Build the grid, run it, and aggregate — the one-call sweep API.

    Results are computed through the runner's streaming path;
    ``on_result`` (if given) observes each result the moment it and its
    predecessors are done, in task order — this is what backs
    ``repro sweep --stream``'s incremental JSONL output.  The worker
    pool is owned by this call and released before it returns.

    ``dispatcher`` (anything with a ``run_stream(tasks)`` yielding
    ordered results, in practice a
    :class:`repro.fabric.RemoteDispatcher`) replaces the local runner:
    the same grid, digests, and streaming contract, executed on remote
    ``repro serve`` hosts — ``jobs`` and ``cache`` then belong to the
    servers and are ignored here.
    """
    import time

    tasks = build_sweep_tasks(grids, base_seed=base_seed, limit=limit)
    results: list[TaskResult] = []
    start = time.perf_counter()
    with (
        nullcontext(dispatcher)
        if dispatcher is not None
        else BatchRunner(jobs=jobs, cache=cache)
    ) as executor:
        for result in executor.run_stream(tasks):
            if on_result is not None:
                on_result(result)
            results.append(result)
    elapsed = time.perf_counter() - start
    return SweepOutcome(
        tasks=tasks,
        results=results,
        # Cache hits, in-run dedupe and (on the fabric) the remote
        # hosts' own caches all mark results ``cached``.
        cache_hits=sum(r.cached for r in results),
        table=aggregate_table(results, title),
        errors=sum(1 for r in results if not r.ok),
        elapsed=elapsed,
    )
