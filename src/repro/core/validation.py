"""Instance well-formedness checks shared by every algorithm entry point.

Each algorithm in the library states its preconditions (integral data, interval
jobs, positive capacity, ...) by calling the helpers here, so the error
messages are uniform and the checks are tested in one place.
"""

from __future__ import annotations

from .jobs import Instance

__all__ = [
    "require_capacity",
    "require_integral",
    "require_interval_jobs",
    "require_unit_jobs",
]


def require_capacity(g: int) -> int:
    """Validate the machine capacity ``g`` (positive integer)."""
    if not isinstance(g, int) or isinstance(g, bool):
        raise TypeError(f"capacity g must be an int, got {type(g).__name__}")
    if g < 1:
        raise ValueError(f"capacity g must be >= 1, got {g}")
    return g


def require_integral(instance: Instance, context: str = "") -> Instance:
    """Require integral releases, deadlines and lengths (active-time model)."""
    if not instance.is_integral:
        where = f" ({context})" if context else ""
        raise ValueError(
            "active-time algorithms require integral job parameters" + where
        )
    return instance


def require_interval_jobs(instance: Instance, context: str = "") -> Instance:
    """Require every job to be an interval job (rigid start time)."""
    if not instance.all_interval:
        flexible = [j.id for j in instance.jobs if not j.is_interval]
        where = f" ({context})" if context else ""
        raise ValueError(
            f"expected interval jobs only{where}; flexible job ids: {flexible[:10]}"
        )
    return instance


def require_unit_jobs(instance: Instance) -> Instance:
    """Require every job to have unit length."""
    if not instance.all_unit:
        raise ValueError("expected unit-length jobs only")
    return instance

