"""Per-task trace spans: where did this task's wall time go?

A :class:`TaskTrace` records named spans (durations in seconds) plus a
flat label set.  The payload is plain JSON — it crosses the worker
process boundary inside ``TaskResult.metrics["trace"]`` and lands in
JSONL result files unchanged — and reads as the task's life story::

    {"labels": {"algorithm": "rounding", "backend": "scipy-highs",
                "watchdog_kill": false},
     "spans": [{"name": "cache_lookup", "dur": 0.00002},
               {"name": "queued", "dur": 0.013},
               {"name": "solving", "dur": 0.241},
               {"name": "total", "dur": 0.255}]}

The worker side records ``solving`` (and labels what it learned from
the solver layer: the backend); the parent-side runner prepends
``cache_lookup``/``queued`` and appends ``total`` when the result comes
home, since only the parent knows when the task entered the queue.
Durations, never absolute timestamps: workers and parents need not
share a clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "TaskTrace",
    "trace_labels",
    "trace_spans",
]


class TaskTrace:
    """Span recorder for one task; ``None``-valued labels are dropped."""

    __slots__ = ("labels", "spans")

    def __init__(self, **labels: Any) -> None:
        self.labels: dict[str, Any] = {
            k: v for k, v in labels.items() if v is not None
        }
        self.spans: list[dict[str, Any]] = []

    def label(self, **labels: Any) -> None:
        """Merge labels into the trace (``None`` values are dropped)."""
        self.labels.update(
            {k: v for k, v in labels.items() if v is not None}
        )

    def add_span(self, name: str, dur: float) -> None:
        self.spans.append({"name": name, "dur": round(float(dur), 6)})

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the duration of a ``with`` block as one span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_span(name, time.perf_counter() - start)

    def to_payload(self) -> dict[str, Any]:
        """The JSON-serializable form carried in ``metrics["trace"]``."""
        return {"labels": dict(self.labels), "spans": list(self.spans)}


def trace_spans(metrics: dict[str, Any] | None) -> dict[str, float]:
    """``{span name: duration}`` from a result's metrics (missing -> {}).

    Repeated span names fold by summation, so a retried stage reads as
    its total cost.
    """
    payload = (metrics or {}).get("trace") or {}
    out: dict[str, float] = {}
    for span in payload.get("spans", ()):
        name = span.get("name")
        if isinstance(name, str):
            out[name] = out.get(name, 0.0) + float(span.get("dur", 0.0))
    return out


def trace_labels(metrics: dict[str, Any] | None) -> dict[str, Any]:
    """The trace's label set from a result's metrics (missing -> {})."""
    payload = (metrics or {}).get("trace") or {}
    labels = payload.get("labels")
    return dict(labels) if isinstance(labels, dict) else {}
