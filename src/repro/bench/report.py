"""Plain-text rendering of benchmark results.

Each paper artefact's function returns its rows as a :class:`Table`; the
``benchmarks/`` pytest files and ``repro.cli`` print it with
:func:`render_table`, so the rows the paper reports can be eyeballed directly.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


class Table(NamedTuple):
    """A printable table: the arguments of :func:`render_table`, in order."""

    title: str
    headers: Sequence[str]
    rows: list[list[object]]
    float_format: str = "{:.2f}"


def render_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]],
                 float_format: str = "{:.2f}") -> str:
    """Render a fixed-width text table with a title line."""
    formatted_rows = []
    for row in rows:
        formatted = []
        for cell in row:
            if isinstance(cell, float):
                formatted.append(float_format.format(cell))
            else:
                formatted.append(str(cell))
        formatted_rows.append(formatted)
    widths = [len(str(h)) for h in headers]
    for row in formatted_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in formatted_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``, linearly interpolated."""
    if not values:
        raise ValueError("cannot take a percentile of no values")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def human_size(size: int) -> str:
    """Short label for a file size (256K, 1M, 16M…)."""
    if size >= 1024 * 1024:
        value = size / (1024 * 1024)
        return f"{value:.0f}M" if value == int(value) else f"{value:.1f}M"
    if size >= 1024:
        return f"{size // 1024}K"
    return f"{size}B"
