"""Plain-text rendering of experiment results.

Every experiment module renders its results as the rows/series the
paper's corresponding table or figure reports, so experiment output can be
compared against the paper side by side.
"""

from __future__ import annotations

__all__ = ["render_table", "render_series", "render_kv"]


def render_table(
    headers: list[str], rows: list[list], title: str = "", precision: int = 2
) -> str:
    """Fixed-width ASCII table."""

    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    cells = [[fmt(c) for c in row] for row in rows]
    for r in cells:
        if len(r) != len(headers):
            raise ValueError(
                f"row has {len(r)} cells but table has {len(headers)} columns"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells)
    return "\n".join(lines)


def render_series(
    x_label: str,
    x_values: list,
    series: dict[str, list[float]],
    title: str = "",
    precision: int = 1,
) -> str:
    """A figure's data as a table: one x column, one column per curve."""
    headers = [x_label, *series.keys()]
    for name, ys in series.items():
        if len(ys) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(ys)} points for {len(x_values)} x values"
            )
    rows = [
        [x, *(series[name][i] for name in series)] for i, x in enumerate(x_values)
    ]
    return render_table(headers, rows, title=title, precision=precision)


def render_kv(pairs: dict, title: str = "") -> str:
    """Key/value block."""
    width = max(len(str(k)) for k in pairs) if pairs else 0
    lines = [title] if title else []
    lines.extend(f"{str(k).rjust(width)}: {v}" for k, v in pairs.items())
    return "\n".join(lines)
