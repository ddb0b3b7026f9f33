"""Plain-text report formatting.

The benchmark harnesses print the same rows/series the paper's figures show;
these helpers render them as aligned text tables for terminal output without
pulling in any plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .sweeps import SweepResult

__all__ = ["format_table", "series_side_by_side"]


def _stringify(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None) -> str:
    """Render dictionaries as an aligned fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {col: len(col) for col in columns}
    rendered_rows = []
    for row in rows:
        rendered = {col: _stringify(row.get(col, "")) for col in columns}
        rendered_rows.append(rendered)
        for col in columns:
            widths[col] = max(widths[col], len(rendered[col]))
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    separator = "  ".join("-" * widths[col] for col in columns)
    lines = [header, separator]
    for rendered in rendered_rows:
        lines.append("  ".join(rendered[col].ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def series_side_by_side(result: SweepResult, precision: int = 2) -> str:
    """Render a sweep with one column per series (matches the figure layout).

    The rows are the union of every series' x values (sorted); a series
    without a point at a given x leaves that cell blank.
    """
    if not result.series:
        return "(no data)"
    xs = sorted({x for series in result.series for x in series.xs()})
    columns = [result.x_label] + result.labels()
    rows: list[dict[str, object]] = []
    for x in xs:
        row: dict[str, object] = {result.x_label: x}
        for series in result.series:
            value = ""
            for point in series.points:
                if point.x == x:
                    value = round(point.summary.mean, precision)
                    break
            row[series.label] = value
        rows.append(row)
    return format_table(rows, columns)
