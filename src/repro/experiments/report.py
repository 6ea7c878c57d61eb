"""Fixed-width table and ASCII chart renderers for experiment output.

Every bench prints the same rows/series the paper reports; these helpers
keep the formatting consistent and dependency-free.  The figures are
line charts in the paper, so :func:`render_ascii_chart` draws the same
series on a character grid (log-scaled y, categorical x) under each
figure's table.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["render_table", "render_ascii_chart", "format_size"]


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render ``rows`` as a fixed-width text table with a title."""
    materialized: List[List[str]] = [[_cell(value) for value in row]
                                     for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = [title]
    lines.append("  ".join(header.ljust(widths[i])
                           for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in materialized:
        lines.append("  ".join(value.rjust(widths[i]) if i else
                               value.ljust(widths[i])
                               for i, value in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_ascii_chart(title: str,
                       series: Dict[str, List[Tuple[int, float]]],
                       x_labels: Sequence[str],
                       height: int = 14, log_y: bool = True) -> str:
    """Draw one or more series on a character grid.

    ``series`` maps a single-character marker to points ``(x_index,
    value)``; ``x_labels`` names the categorical x positions.  Values
    spanning decades read best with ``log_y`` (the default, matching
    the paper's figures).
    """
    if not series:
        raise ValueError("need at least one series")
    points = [(marker, x, value)
              for marker, pts in series.items() for x, value in pts]
    if not points:
        raise ValueError("series contain no points")
    values = [value for _, _, value in points]
    if log_y and min(values) <= 0:
        raise ValueError("log-scaled chart needs positive values")
    scale = math.log10 if log_y else (lambda v: v)
    low = min(scale(v) for v in values)
    high = max(scale(v) for v in values)
    span = (high - low) or 1.0
    columns = len(x_labels)
    step = 6
    width = (columns - 1) * step + 1
    grid = [[" "] * width for _ in range(height)]
    for marker, x, value in points:
        if not 0 <= x < columns:
            raise ValueError(f"x index {x} outside the labels")
        row = int(round((high - scale(value)) / span * (height - 1)))
        grid[row][x * step] = marker[0]
    lines = [title]
    top = f"{10 ** high:.2f}" if log_y else f"{high:.2f}"
    bottom = f"{10 ** low:.2f}" if log_y else f"{low:.2f}"
    margin = max(len(top), len(bottom)) + 1
    for index, row in enumerate(grid):
        label = top if index == 0 else (bottom if index == height - 1
                                        else "")
        lines.append(f"{label:>{margin}} |" + "".join(row))
    lines.append(" " * margin + " +" + "-" * width)
    axis = [" "] * (width + step)
    for column, text in enumerate(x_labels):
        position = column * step
        for offset, char in enumerate(text[:step - 1]):
            axis[position + offset] = char
    lines.append(" " * margin + "  " + "".join(axis).rstrip())
    return "\n".join(lines)


def format_size(size_bytes: int) -> str:
    """Human cache size: ``4 KB`` style."""
    if size_bytes >= 1024 and size_bytes % 1024 == 0:
        return f"{size_bytes // 1024} KB"
    return f"{size_bytes} B"
