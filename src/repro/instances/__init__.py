"""Instance families: random generators and the paper's gadget constructions."""

from .gadgets import (
    Gadget,
    figure1,
    figure3,
    figure6,
    figure8,
    figure9,
    figure10,
    lp_gap,
)
from .generators import (
    PROBLEM_GENERATORS,
    SWEEP_GENERATORS,
    random_active_time_instance,
    random_clique_instance,
    random_flexible_instance,
    random_interval_instance,
    random_proper_instance,
    random_unit_instance,
    tight_window_instance,
)

__all__ = [
    "Gadget",
    "PROBLEM_GENERATORS",
    "SWEEP_GENERATORS",
    "figure1",
    "figure3",
    "figure6",
    "figure8",
    "figure9",
    "figure10",
    "lp_gap",
    "random_active_time_instance",
    "random_clique_instance",
    "random_flexible_instance",
    "random_interval_instance",
    "random_proper_instance",
    "random_unit_instance",
    "tight_window_instance",
]
