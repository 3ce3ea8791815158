"""Approximation-ratio measurement harness.

The paper's results are worst-case ratios; the benchmark suite measures the
corresponding empirical ratios on random and adversarial instances.  This
module centralizes the bookkeeping: run algorithm(s), compute a baseline
(exact optimum or lower bound), collect per-instance ratios and aggregate.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "RatioSample",
    "RatioSummary",
    "summarize",
    "summarize_groups",
]


@dataclass(frozen=True)
class RatioSample:
    """One measured (cost, baseline) pair."""

    label: str
    cost: float
    baseline: float
    meta: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """``cost / baseline`` (``inf`` for a zero baseline with cost)."""
        if self.baseline <= 0:
            return 0.0 if self.cost <= 0 else float("inf")
        return self.cost / self.baseline


@dataclass(frozen=True)
class RatioSummary:
    """Aggregate statistics over a set of ratio samples."""

    label: str
    count: int
    mean: float
    worst: float
    best: float

    def row(self) -> str:
        """One formatted table row (label, n, mean/max/min ratio)."""
        return (
            f"{self.label:<28} n={self.count:<4d} "
            f"mean={self.mean:6.3f}  max={self.worst:6.3f}  min={self.best:6.3f}"
        )


def summarize_groups(samples: Sequence[RatioSample]) -> list[RatioSummary]:
    """Group samples by label and summarize each group (label-sorted)."""
    groups: dict[str, list[RatioSample]] = {}
    for sample in samples:
        groups.setdefault(sample.label, []).append(sample)
    return [summarize(groups[label]) for label in sorted(groups)]


def summarize(samples: Sequence[RatioSample]) -> RatioSummary:
    """Aggregate samples sharing a label."""
    if not samples:
        raise ValueError("no samples to summarize")
    label = samples[0].label
    ratios = [s.ratio for s in samples]
    return RatioSummary(
        label=label,
        count=len(ratios),
        mean=statistics.fmean(ratios),
        worst=max(ratios),
        best=min(ratios),
    )
