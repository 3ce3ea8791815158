"""Backend registry: name -> :class:`SolverBackend`, with capability routing.

Two backends are built in: ``scipy-highs`` (HiGHS via scipy, the
default) and ``reference`` (the dependency-free oracle that parity
tests compare against).

Selection rules, in order:

1. an explicit ``backend=`` argument (a name or a backend instance) wins;
2. otherwise the ``REPRO_LP_BACKEND`` environment variable;
3. otherwise the default (``scipy-highs``).

Whichever backend is picked must have every capability the solve
requires, or the call raises.

A typo'd name raises ``ValueError`` carrying the full backend menu —
the same UX as the sweep CLI's generator/algorithm filters — so scripts
fail loudly instead of silently running a different solver.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Iterable, Iterator, Mapping

from ..obs import REGISTRY as OBS
from .base import SolverBackend, SolverResult
from .ir import LinearProgram
from .reference import ReferenceBackend
from .scipy_backend import ScipyHighsBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backend_names",
    "backend_menu",
    "backend_names",
    "backend_status",
    "capture_solves",
    "get_backend",
    "record_solve",
    "register_backend",
    "resolve_backend",
    "solve_ir",
]

#: Latency of every backend ``solve()`` routed through :func:`solve_ir`,
#: labeled by the backend that ran and the program kind it was handed.
_BACKEND_SECONDS = OBS.histogram(
    "repro_backend_solve_seconds",
    "LP/MILP backend solve latency via solve_ir",
    ("backend", "kind"),
)
_BACKEND_SOLVES = OBS.counter(
    "repro_backend_solves_total",
    "Backend solves by terminal status",
    ("backend", "status"),
)

# Per-thread capture channel: the engine's task executor opens it around
# a solve so the backend that ran rides home in the task's result even
# though the algorithm adapters between them don't pass SolverResult
# through.
_CAPTURE = threading.local()


@contextmanager
def capture_solves() -> Iterator[list[dict[str, Any]]]:
    """Collect one event dict per :func:`solve_ir` call in this thread.

    Each event carries ``backend``/``kind``/``status``/``elapsed`` plus
    ``warm_start_used``/``structure_hit``, which are always False (no
    backend keeps state between solves) and stay because
    ``perfbench/layers.py`` reads them.  Nested captures stack: the
    inner scope sees only its own solves.
    """
    previous = getattr(_CAPTURE, "events", None)
    _CAPTURE.events = events = []
    try:
        yield events
    finally:
        _CAPTURE.events = previous

#: Environment variable consulted when no explicit backend is requested.
BACKEND_ENV_VAR = "REPRO_LP_BACKEND"

#: The backend used when nothing is requested anywhere.
DEFAULT_BACKEND = "scipy-highs"

_BACKENDS: dict[str, SolverBackend] = {}


def register_backend(backend: SolverBackend) -> SolverBackend:
    """Add a backend instance; duplicate names are an error."""
    if backend.name in _BACKENDS:
        raise ValueError(f"backend {backend.name!r} already registered")
    _BACKENDS[backend.name] = backend
    return backend


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, sorted."""
    return tuple(sorted(_BACKENDS))


def available_backend_names() -> tuple[str, ...]:
    """Names of backends usable here: every registered one."""
    return backend_names()


def backend_menu() -> str:
    """Human-readable list of backends with their capabilities."""
    return "; ".join(
        f"{name} ({','.join(sorted(_BACKENDS[name].capabilities()))})"
        for name in backend_names()
    )


def backend_status(name: str) -> dict[str, Any]:
    """One backend's name, capabilities and status, JSON-ready.

    The shared source for every backend listing — the ``repro algos``
    table and the serving layer's ``GET /algos`` both render from this,
    so their menus cannot drift apart.
    """
    return {
        "name": name,
        "capabilities": sorted(get_backend(name).capabilities()),
        "status": "default" if name == DEFAULT_BACKEND else "available",
    }


def get_backend(name: str) -> SolverBackend:
    """Look one backend up by name; unknown names get the full menu."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available backends: {backend_menu()}"
        ) from None


def resolve_backend(
    backend: str | SolverBackend | None = None,
    *,
    require: Iterable[str] = (),
) -> SolverBackend:
    """Pick the backend for a solve, enforcing required capabilities.

    Parameters
    ----------
    backend:
        Explicit request — a registered name, a backend instance, or
        ``None`` for "environment, then default".
    require:
        Capabilities the solve needs (``{"lp"}``, ``{"milp"}``, ...).
        A chosen backend missing one is an error carrying the menu.
    """
    need = frozenset(require)
    if backend is not None and not isinstance(backend, str):
        missing = need - backend.capabilities()
        if missing:
            raise ValueError(
                f"backend {backend.name!r} lacks required "
                f"capabilities {sorted(missing)}"
            )
        return backend

    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR)
    name = backend or DEFAULT_BACKEND
    chosen = get_backend(name)
    missing = need - chosen.capabilities()
    if missing:
        raise ValueError(
            f"backend {name!r} lacks required capabilities "
            f"{sorted(missing)}; available backends: {backend_menu()}"
        )
    return chosen


def solve_ir(
    lp: LinearProgram,
    *,
    backend: str | SolverBackend | None = None,
) -> SolverResult:
    """Route one IR solve through the registry — the main entry point.

    The required capability (``lp`` vs ``milp``) is derived from the
    program itself, so callers cannot accidentally hand a MILP to an
    LP-only backend.
    """
    chosen = resolve_backend(backend, require={lp.required_capability})
    start = time.perf_counter()
    result = chosen.solve(lp)
    elapsed = time.perf_counter() - start
    if result.elapsed == 0.0:  # backend didn't time itself
        result = replace(result, elapsed=elapsed)
    event = {
        "backend": chosen.name,
        "kind": lp.required_capability,
        "status": result.status,
        "elapsed": elapsed,
        "warm_start_used": False,
        "structure_hit": False,
    }
    record_solve(event)
    events = getattr(_CAPTURE, "events", None)
    if events is not None:
        events.append(event)
    return result


def record_solve(event: Mapping[str, Any]) -> None:
    """Count one solve event in this process's backend metrics.

    :func:`solve_ir` calls it for every solve; the engine calls it for
    the events a pool worker ships home with its result, since the
    worker's own counts never reach the parent's ``/metrics``.
    """
    backend = event["backend"]
    _BACKEND_SECONDS.labels(backend=backend, kind=event["kind"]).observe(
        event["elapsed"]
    )
    _BACKEND_SOLVES.labels(backend=backend, status=event["status"]).inc()


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
register_backend(ScipyHighsBackend())
register_backend(ReferenceBackend())
