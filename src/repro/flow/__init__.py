"""Max-flow substrate: Dinic solver and the Figure-2 feasibility network."""

from .dinic import Dinic, MaxFlowResult
from .feasibility import ActiveTimeFeasibility, is_feasible_slot_set

__all__ = [
    "ActiveTimeFeasibility",
    "Dinic",
    "MaxFlowResult",
    "is_feasible_slot_set",
]
