"""Small helpers for formatting experiment results as text tables."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence


def format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000:
            return f"{value:,.0f}"
        if magnitude >= 10:
            return f"{value:.1f}"
        if magnitude >= 0.01:
            return f"{value:.3f}"
        return f"{value:.2e}"
    return str(value)


def format_table(rows: Sequence[Dict[str, Any]], title: str = "") -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    rendered = [[format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = " | ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = [
        " | ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in rendered
    ]
    lines = ([title] if title else []) + [header, separator] + body
    return "\n".join(lines)
