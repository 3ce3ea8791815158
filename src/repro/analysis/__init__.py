"""Measurement helpers: approximation ratios and report formatting."""

from .experiments import EXPERIMENTS, Experiment, run_all, run_experiment
from .ratios import RatioSample, RatioSummary, summarize, summarize_groups
from .report import format_table

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "run_all",
    "run_experiment",
    "RatioSample",
    "RatioSummary",
    "format_table",
    "summarize",
    "summarize_groups",
]
