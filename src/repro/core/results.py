"""Small result-formatting helpers shared by the pipeline and the examples."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a plain-text table with aligned columns.

    Renders the same rows the paper's tables report (the values come from
    our simulator, the layout mirrors the paper).
    """
    str_rows: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        str_rows.append([_format_cell(cell) for cell in row])
    widths = [max(len(r[i]) for r in str_rows) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(str_rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(headers))))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def format_percentage(value: float) -> str:
    """Format a 0..1 fraction as a percentage string: ``0.42 -> "42%"``.

    ``float(value)`` first, so a numpy scalar renders the same bytes as the
    Python float it equals.
    """
    return f"{100.0 * float(value):.0f}%"
