"""Streaming JSONL result store and aggregation into report tables.

``write_results`` appends one JSON object per line as results arrive.
``aggregate`` folds a result set into the existing :mod:`repro.analysis`
machinery: per ``(problem, algorithm, g)`` cell it reports counts, mean
objective and the empirical approximation ratio against the recorded
lower bound.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from ..analysis.ratios import RatioSample, summarize_groups
from ..analysis.report import format_table
from .workers import TaskResult

__all__ = [
    "write_results",
    "aggregate",
    "aggregate_table",
]


def write_results(results: Iterable[TaskResult], path: str | Path) -> int:
    """Write results as JSONL, replacing ``path``; returns the number of
    lines written."""
    p = Path(path)
    if p.parent != Path("."):
        p.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with p.open("w") as fh:
        for result in results:
            fh.write(json.dumps(result.to_record(), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def _cell_label(result: TaskResult) -> str:
    return f"{result.problem}/{result.algorithm} g={result.g}"


def aggregate(results: Sequence[TaskResult]) -> list[dict]:
    """Fold results into per-``(problem, algorithm, g)`` summary rows."""
    ok = [r for r in results if r.ok and r.objective is not None]
    errors: dict[str, int] = {}
    cached: dict[str, int] = {}
    objectives: dict[str, list[float]] = {}
    elapsed: dict[str, float] = {}
    for r in results:
        label = _cell_label(r)
        errors.setdefault(label, 0)
        cached.setdefault(label, 0)
        elapsed[label] = elapsed.get(label, 0.0) + r.elapsed
        if not r.ok:
            errors[label] += 1
        if r.cached:
            cached[label] += 1
    samples = []
    for r in ok:
        label = _cell_label(r)
        objectives.setdefault(label, []).append(r.objective)
        baseline = float(r.metrics.get("lower_bound", 0.0) or 0.0)
        if baseline > 0:
            samples.append(
                RatioSample(label=label, cost=r.objective, baseline=baseline)
            )
    ratio_by_label = {s.label: s for s in summarize_groups(samples)}

    rows = []
    for label in sorted(errors):
        objs = objectives.get(label, [])
        ratio = ratio_by_label.get(label)
        rows.append(
            {
                "cell": label,
                "count": len(objs) + errors[label],
                "errors": errors[label],
                "cached": cached[label],
                "mean_objective": (
                    sum(objs) / len(objs) if objs else float("nan")
                ),
                "mean_ratio": ratio.mean if ratio else float("nan"),
                "max_ratio": ratio.worst if ratio else float("nan"),
                "elapsed": elapsed[label],
            }
        )
    return rows


def aggregate_table(results: Sequence[TaskResult], title: str) -> str:
    """Render :func:`aggregate` rows as a report table."""
    rows = aggregate(results)
    return format_table(
        title,
        ["cell", "n", "err", "hit", "mean obj", "mean r/LB", "max r/LB", "sec"],
        [
            [
                row["cell"],
                row["count"],
                row["errors"],
                row["cached"],
                row["mean_objective"],
                row["mean_ratio"],
                row["max_ratio"],
                row["elapsed"],
            ]
            for row in rows
        ],
    )
