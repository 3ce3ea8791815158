"""Central solver registry: ``(problem, name) -> solver + metadata``.

The seed CLI hard-coded two algorithm-name tuples and a chain of
``if/elif`` dispatch; every new consumer (batch runner, sweep driver,
examples) would have had to repeat them.  This module is the single
source of truth instead: each algorithm is registered once with a
uniform call signature and enough metadata (exactness, guarantee,
complexity, capabilities) for callers to build menus, validate requests
and annotate results.

The design follows the solver-abstraction layers in scipy's HiGHS
wrapper and python-mip: raw algorithms keep their natural signatures,
and thin adapters normalize them into a single ``SolveOutcome`` shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..core.jobs import Instance

__all__ = [
    "SolveOutcome",
    "SolverSpec",
    "SolverRegistry",
    "REGISTRY",
    "backend_task_params",
    "solve",
]

#: Problem families the registry knows about.
PROBLEMS = ("active", "busy")

#: The algorithm each problem runs when a caller names none: the
#: ``repro active``/``busy``/``batch`` commands and ``repro serve``.
DEFAULT_ALGORITHM = {"active": "rounding", "busy": "greedy_tracking"}


@dataclass(frozen=True)
class SolveOutcome:
    """Uniform result of one solver invocation.

    ``objective`` is the quantity the problem minimizes (active slots or
    total busy time); ``metrics`` holds JSON-serializable extras (lower
    bounds, machine counts, LP objectives); ``schedule`` is the rich
    in-process object for callers that want to inspect or verify it —
    it is *not* shipped across process boundaries or into caches.
    """

    objective: float
    metrics: dict[str, Any] = field(default_factory=dict)
    schedule: Any | None = None


@dataclass(frozen=True)
class SolverSpec:
    """One registered algorithm plus its metadata.

    ``backend_capability`` names the LP/MILP backend capability the
    algorithm routes through :mod:`repro.solvers` (``"lp"`` or
    ``"milp"``); ``None`` marks purely combinatorial algorithms that
    accept no ``backend=`` parameter.
    """

    problem: str
    name: str
    solve: Callable[..., SolveOutcome]
    exact: bool
    guarantee: str
    complexity: str
    description: str
    capabilities: frozenset[str] = frozenset()
    backend_capability: str | None = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.problem, self.name)

    def describe_row(self) -> list[str]:
        """Row for the ``repro algos`` table."""
        return [
            self.problem,
            self.name,
            "exact" if self.exact else self.guarantee,
            self.backend_capability or "-",
            self.complexity,
            self.description,
        ]


class SolverRegistry:
    """Mapping of ``(problem, name)`` to :class:`SolverSpec`."""

    def __init__(self) -> None:
        self._specs: dict[tuple[str, str], SolverSpec] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, spec: SolverSpec) -> SolverSpec:
        """Add a spec; duplicate ``(problem, name)`` keys are an error."""
        if spec.problem not in PROBLEMS:
            raise ValueError(
                f"unknown problem {spec.problem!r}; choose from {PROBLEMS}"
            )
        if spec.key in self._specs:
            raise ValueError(
                f"solver {spec.name!r} already registered for "
                f"problem {spec.problem!r}"
            )
        self._specs[spec.key] = spec
        return spec

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, problem: str, name: str) -> SolverSpec:
        """Return the spec for ``(problem, name)`` or raise ``KeyError``."""
        try:
            return self._specs[(problem, name)]
        except KeyError:
            raise KeyError(
                f"no solver {name!r} for problem {problem!r}; "
                f"registered: {self.names(problem)}"
            ) from None

    def names(self, problem: str) -> tuple[str, ...]:
        """Sorted solver names registered for ``problem``."""
        return tuple(
            sorted(n for (p, n) in self._specs if p == problem)
        )

    def specs(self, problem: str | None = None) -> tuple[SolverSpec, ...]:
        """All specs (optionally restricted to one problem), sorted."""
        return tuple(
            spec
            for key, spec in sorted(self._specs.items())
            if problem is None or key[0] == problem
        )

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[SolverSpec]:
        return iter(self.specs())

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._specs

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def solve(
        self,
        problem: str,
        name: str,
        instance: Instance,
        g: int,
        **params: Any,
    ) -> SolveOutcome:
        """Look up and invoke a solver with a uniform signature."""
        spec = self.get(problem, name)
        if params.get("backend") is not None and spec.backend_capability is None:
            raise ValueError(_no_backend_message(problem, name))
        return spec.solve(instance, g, **params)


def _no_backend_message(problem: str, name: str) -> str:
    return (
        f"algorithm {name!r} ({problem}) is combinatorial and does not "
        "use an LP/MILP backend; drop --backend or pick an LP-based "
        "algorithm (see `repro algos`)"
    )


def backend_task_params(
    problem: str,
    name: str,
    backend: str | None,
    *,
    strict: bool = True,
) -> dict[str, str]:
    """Solver params pinning the effective LP/MILP backend for one task.

    The single source of the backend-routing policy, shared by the CLI
    and the sweep driver (their pinned names must agree byte-for-byte —
    the name feeds the task digest, hence the cache key):

    * algorithms that route through :mod:`repro.solvers` get
      ``{"backend": <resolved name>}`` — the explicit request, else the
      ``REPRO_LP_BACKEND``/default resolution — validated against the
      algorithm's required capability (typos raise with the menu);
    * combinatorial algorithms get ``{}``; explicitly naming a backend
      for one raises when ``strict`` (single-algorithm CLI commands) and
      is ignored when not (sweeps legitimately mix both kinds).
    """
    from ..solvers import resolve_backend

    spec = REGISTRY.get(problem, name)
    if spec.backend_capability is None:
        if backend is not None and strict:
            raise ValueError(_no_backend_message(problem, name))
        return {}
    chosen = resolve_backend(backend, require={spec.backend_capability})
    return {"backend": chosen.name}


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------


def _active_metrics(instance: Instance, g: int) -> dict[str, Any]:
    from ..activetime import lower_bound_mass

    return {"lower_bound": float(lower_bound_mass(instance, g))}


def _solve_active_rounding(
    instance: Instance, g: int, backend: str | None = None
) -> SolveOutcome:
    from ..activetime import round_active_time

    sol = round_active_time(instance, g, backend=backend)
    sol.schedule.verify()
    metrics = _active_metrics(instance, g)
    metrics.update(
        lp_objective=float(sol.lp_objective),
        ratio_vs_lp=float(sol.ratio_vs_lp),
    )
    return SolveOutcome(
        objective=float(sol.schedule.cost),
        metrics=metrics,
        schedule=sol.schedule,
    )


def _solve_active_minimal(instance: Instance, g: int) -> SolveOutcome:
    from ..activetime import minimal_feasible_schedule

    schedule = minimal_feasible_schedule(instance, g)
    schedule.verify()
    return SolveOutcome(
        objective=float(schedule.cost),
        metrics=_active_metrics(instance, g),
        schedule=schedule,
    )


def _solve_active_exact(
    instance: Instance, g: int, backend: str | None = None
) -> SolveOutcome:
    from ..activetime import exact_active_time

    schedule = exact_active_time(instance, g, backend=backend)
    schedule.verify()
    return SolveOutcome(
        objective=float(schedule.cost),
        metrics=_active_metrics(instance, g),
        schedule=schedule,
    )


def _solve_active_unit(instance: Instance, g: int) -> SolveOutcome:
    from ..activetime import unit_jobs_optimal_schedule

    schedule = unit_jobs_optimal_schedule(instance, g)
    schedule.verify()
    return SolveOutcome(
        objective=float(schedule.cost),
        metrics=_active_metrics(instance, g),
        schedule=schedule,
    )


def _busy_outcome(schedule, instance: Instance, g: int) -> SolveOutcome:
    from ..busytime import best_lower_bound, mass_lower_bound

    schedule.verify()
    # The span/profile bounds require interval jobs; flexible instances
    # fall back to the always-valid mass bound (Observation 2).
    if instance.all_interval:
        bound = best_lower_bound(instance, g)
    else:
        bound = mass_lower_bound(instance, g)
    return SolveOutcome(
        objective=float(schedule.total_busy_time),
        metrics={
            "lower_bound": float(bound),
            "num_machines": int(schedule.num_machines),
        },
        schedule=schedule,
    )


def _make_busy_flexible(name: str) -> Callable[..., SolveOutcome]:
    def _solve(
        instance: Instance, g: int, backend: str | None = None
    ) -> SolveOutcome:
        from ..busytime import schedule_flexible
        from ..solvers import resolve_backend

        outcome = _busy_outcome(
            schedule_flexible(instance, g, algorithm=name, backend=backend),
            instance,
            g,
        )
        if not instance.all_interval:
            # OPT_inf's MILP may have been solved by an earlier task in
            # this process, leaving no solve event to name the backend.
            outcome.metrics["backend"] = resolve_backend(
                backend, require={"milp"}
            ).name
        return outcome

    _solve.__name__ = f"_solve_busy_{name}"
    return _solve


def _solve_busy_exact(
    instance: Instance, g: int, backend: str | None = None
) -> SolveOutcome:
    from ..busytime import exact_busy_time_interval

    return _busy_outcome(
        exact_busy_time_interval(instance, g, backend=backend), instance, g
    )


_ACTIVE_SOLVERS: tuple[
    tuple[str, Callable, bool, str, str, str, frozenset, str | None], ...
] = (
    (
        "rounding",
        _solve_active_rounding,
        False,
        "2-approx (Thm 2)",
        "LP + O(n log n) rounding",
        "LP rounding with minimal barely-open slot closure",
        frozenset({"integral", "flexible"}),
        "lp",
    ),
    (
        "minimal",
        _solve_active_minimal,
        False,
        "3-approx (Thm 1)",
        "O(T * maxflow)",
        "greedy slot closure to a minimal feasible set",
        frozenset({"integral", "flexible"}),
        None,
    ),
    (
        "exact",
        _solve_active_exact,
        True,
        "exact",
        "MILP (exponential)",
        "integer program over slot-open variables",
        frozenset({"integral", "flexible", "expensive"}),
        "milp",
    ),
    (
        "unit",
        _solve_active_unit,
        True,
        "exact (unit jobs)",
        "O(n log n)",
        "Chang-Gabow-Khuller optimal algorithm for unit jobs",
        frozenset({"integral", "unit-only"}),
        None,
    ),
)

_BUSY_FLEXIBLE_META: dict[str, tuple[str, str, str]] = {
    "greedy_tracking": (
        "3-approx (Thm 5)",
        "O(n^2)",
        "pin via OPT_inf, then pack along greedy tracks",
    ),
    "first_fit": (
        "no constant bound",
        "O(n^2)",
        "pin via OPT_inf, then first-fit by decreasing span",
    ),
    "chain_peeling": (
        "4-approx (Thm 10)",
        "O(n^2)",
        "pin via OPT_inf, then peel 2-approximate chains",
    ),
    "kumar_rudra": (
        "4-approx (Thm 10)",
        "O(gn (log gn + L))",
        "pin via OPT_inf, then Kumar-Rudra level coloring on L levels",
    ),
}


def _register_builtin(registry: SolverRegistry) -> None:
    for (
        name,
        fn,
        exact,
        guarantee,
        complexity,
        desc,
        caps,
        backend_cap,
    ) in _ACTIVE_SOLVERS:
        registry.register(
            SolverSpec(
                problem="active",
                name=name,
                solve=fn,
                exact=exact,
                guarantee=guarantee,
                complexity=complexity,
                description=desc,
                capabilities=caps,
                backend_capability=backend_cap,
            )
        )
    from ..busytime import INTERVAL_ALGORITHMS

    for name in INTERVAL_ALGORITHMS:
        guarantee, complexity, desc = _BUSY_FLEXIBLE_META.get(
            name, ("heuristic", "unknown", "interval packer")
        )
        registry.register(
            SolverSpec(
                problem="busy",
                name=name,
                solve=_make_busy_flexible(name),
                exact=False,
                guarantee=guarantee,
                complexity=complexity,
                description=desc,
                capabilities=frozenset({"interval", "flexible"}),
                # The OPT_inf pinning stage is a MILP on flexible
                # (non-interval) instances; interval inputs bypass it.
                backend_capability="milp",
            )
        )
    registry.register(
        SolverSpec(
            problem="busy",
            name="exact",
            solve=_solve_busy_exact,
            exact=True,
            guarantee="exact",
            complexity="MILP (exponential)",
            description="integer program over interval bundles",
            capabilities=frozenset({"interval", "expensive"}),
            backend_capability="milp",
        )
    )


#: The default process-wide registry with every built-in algorithm.
REGISTRY = SolverRegistry()
_register_builtin(REGISTRY)


def solve(
    problem: str,
    name: str,
    instance: Instance,
    g: int,
    **params: Any,
) -> SolveOutcome:
    """Shorthand for :meth:`SolverRegistry.solve` on the default registry."""
    return REGISTRY.solve(problem, name, instance, g, **params)
