"""`repro.solvers` — the backend-neutral LP/MILP layer.

Layers, bottom up:

* :mod:`~repro.solvers.ir` — :class:`LinearProgram`, the canonical
  sparse min-LP/MILP representation every problem assembler emits.
* :mod:`~repro.solvers.base` — the :class:`SolverBackend` protocol and
  the uniform :class:`SolverResult`.
* backends — :mod:`~repro.solvers.scipy_backend` (HiGHS via scipy, the
  default) and :mod:`~repro.solvers.reference` (dependency-free dense
  simplex + branch & bound for tiny instances and CI cross-checks).
* :mod:`~repro.solvers.registry` — name -> backend with env/CLI
  selection and capability-based fallback; :func:`solve_ir` is the one
  routing entry point the algorithm layer calls.
"""

from .base import SolverBackend, SolverError, SolverResult
from .ir import LinearProgram
from .reference import ReferenceBackend
from .registry import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    available_backend_names,
    backend_menu,
    backend_names,
    backend_status,
    get_backend,
    register_backend,
    resolve_backend,
    solve_ir,
)
from .scipy_backend import ScipyHighsBackend

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "LinearProgram",
    "ReferenceBackend",
    "ScipyHighsBackend",
    "SolverBackend",
    "SolverError",
    "SolverResult",
    "available_backend_names",
    "backend_menu",
    "backend_names",
    "backend_status",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "solve_ir",
]
