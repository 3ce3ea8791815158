"""Plain-text table formatting for benchmark output.

The benchmark harness prints the same rows the paper's figures assert
(claimed ratio vs measured ratio per parameter value); these helpers keep
that output uniform and terminal-friendly.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def format_table(
    title: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Render an aligned monospace table with a title rule."""
    cells = [list(map(_fmt, header))] + [list(map(_fmt, r)) for r in rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    lines = [title, "=" * len(title)]
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
