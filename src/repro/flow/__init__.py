"""Max-flow substrate: Dinic solver and the Figure-2 feasibility network."""

from .dinic import Dinic, MaxFlowResult
from .feasibility import (
    ActiveTimeFeasibility,
    extract_assignment,
    is_feasible_slot_set,
)

__all__ = [
    "ActiveTimeFeasibility",
    "Dinic",
    "MaxFlowResult",
    "extract_assignment",
    "is_feasible_slot_set",
]
