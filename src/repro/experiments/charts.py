"""Terminal charts: render figure results without a plotting stack.

The environment is CLI-first (no matplotlib), so figure series render as
Unicode bar charts — enough to eyeball the paper's shapes (retry's linear
growth, Canary's flat line, the RR/AS cost gap) straight from a terminal
or CI log.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.report import FigureResult

_BLOCKS = " ▏▎▍▌▋▊▉█"


def _bar(value: float, max_value: float, width: int) -> str:
    """A horizontal bar of ``value/max_value`` scaled to *width* cells."""
    if max_value <= 0:
        return ""
    cells = value / max_value * width
    full = int(cells)
    remainder = cells - full
    bar = "█" * full
    partial_index = int(remainder * (len(_BLOCKS) - 1))
    if partial_index > 0 and full < width:
        bar += _BLOCKS[partial_index]
    return bar


def series_chart(
    result: FigureResult,
    *,
    x: str,
    y: str,
    series: str,
    width: int = 40,
    unit: str = "",
) -> str:
    """Chart one metric of a FigureResult grouped by a series column.

    Example: ``series_chart(fig7_result, x="error_rate", y="makespan_s",
    series="strategy")`` draws one labeled bar per (strategy, error_rate)
    point, grouped by strategy.
    """
    groups: dict[Any, list[tuple[Any, float]]] = {}
    for row in result.rows:
        if y not in row or row.get(series) is None:
            continue
        groups.setdefault(row[series], []).append((row.get(x), row[y]))
    if not groups:
        raise ValueError(
            f"no rows with columns {x!r}/{y!r}/{series!r} in {result.figure}"
        )
    all_values = [v for points in groups.values() for _, v in points]
    max_value = max(all_values)
    chunks = [f"== {result.figure}: {y} by {series} =="]
    for name in groups:
        chunks.append(f"-- {series}={name} --")
        for x_value, value in groups[name]:
            bar = _bar(value, max_value, width)
            chunks.append(
                f"{str(x_value):>8s} │{bar:<{width}s}│ {value:.2f}{unit}"
            )
    return "\n".join(chunks)
