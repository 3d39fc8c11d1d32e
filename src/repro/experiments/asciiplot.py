"""Terminal line charts for figure output.

The experiment reports render each paper figure both as a data table and
as an ASCII chart so the *shape* (crossovers, flattening, separation) is
visible directly in the terminal without a plotting stack.
"""

from __future__ import annotations

import math

__all__ = ["line_chart"]

_MARKERS = "ox+*#@%&"


def line_chart(
    x_values: list[float],
    series: dict[str, list[float]],
    width: int = 64,
    height: int = 16,
    title: str = "",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Render curves sharing an x axis into a character grid.

    Each series gets a marker from ``oxy+*...``; the legend maps markers
    back to names. Log axes suit weak-scaling plots (node counts double).
    """
    if not series:
        raise ValueError("need at least one series")
    if width < 16 or height < 4:
        raise ValueError("chart too small to be readable")
    for name, ys in series.items():
        if len(ys) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(ys)} points for {len(x_values)} xs"
            )
    if len(x_values) < 2:
        raise ValueError("need at least two x values")

    def tx(v: float) -> float:
        if logx:
            if v <= 0:
                raise ValueError("log x-axis requires positive values")
            return math.log10(v)
        return v

    def ty(v: float) -> float:
        if logy:
            if v <= 0:
                raise ValueError("log y-axis requires positive values")
            return math.log10(v)
        return v

    xs = [tx(v) for v in x_values]
    all_y = [ty(v) for ys in series.values() for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for k, (name, ys) in enumerate(series.items()):
        marker = _MARKERS[k % len(_MARKERS)]
        for xv, yv in zip(xs, (ty(v) for v in ys)):
            col = round((xv - x_lo) / (x_hi - x_lo) * (width - 1))
            row = round((yv - y_lo) / (y_hi - y_lo) * (height - 1))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    top_label = f"{10**y_hi if logy else y_hi:.4g}"
    bot_label = f"{10**y_lo if logy else y_lo:.4g}"
    pad = max(len(top_label), len(bot_label))
    for i, row in enumerate(grid):
        label = top_label if i == 0 else (bot_label if i == height - 1 else "")
        lines.append(f"{label.rjust(pad)} |{''.join(row)}".rstrip())
    lines.append(" " * pad + " +" + "-" * width)
    left = f"{x_values[0]:.4g}"
    right = f"{x_values[-1]:.4g}"
    gap = width - len(left) - len(right)
    lines.append(" " * (pad + 2) + left + " " * max(1, gap) + right)
    legend = "   ".join(
        f"{_MARKERS[k % len(_MARKERS)]}={name}" for k, name in enumerate(series)
    )
    lines.append(" " * (pad + 2) + legend)
    return "\n".join(lines)
