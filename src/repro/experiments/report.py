"""Plain-text table rendering for figure reproductions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


@dataclass
class FigureResult:
    """Rows regenerating one paper figure.

    Attributes:
        figure: e.g. ``"fig4"``.
        title: Paper caption (abbreviated).
        columns: Ordered column keys present in each row dict.
        rows: One dict per plotted point.
        notes: Free-form findings (who wins, by how much) appended to the
            rendered table.
    """

    figure: str
    title: str
    columns: Sequence[str]
    rows: list[dict]
    notes: list[str] = field(default_factory=list)

    def series(self, **match: Any) -> list[dict]:
        """Rows matching all given key=value filters."""
        return [
            r for r in self.rows if all(r.get(k) == v for k, v in match.items())
        ]

    def value(self, column: str, **match: Any) -> float:
        """The single value of *column* in the unique row matching filters."""
        rows = self.series(**match)
        if len(rows) != 1:
            raise KeyError(
                f"expected exactly one row for {match}, found {len(rows)}"
            )
        return rows[0][column]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(result: FigureResult) -> str:
    """Render a FigureResult as a fixed-width text table."""
    columns = list(result.columns)
    header = [c for c in columns]
    body = [[_fmt(row.get(c, "")) for c in columns] for row in result.rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(columns))
    ]
    lines = [f"== {result.figure}: {result.title} =="]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(r[i].rjust(widths[i]) for i in range(len(columns))))
    for note in result.notes:
        lines.append(f"* {note}")
    return "\n".join(lines)


def pct_change(new: float, baseline: float) -> float:
    """Percent change of *new* relative to *baseline* (negative = lower)."""
    if baseline == 0:
        return 0.0
    return 100.0 * (new - baseline) / baseline


def pct_reduction(new: float, baseline: float) -> float:
    """Percent reduction of *new* vs *baseline* (positive = improvement)."""
    return -pct_change(new, baseline)


def reductions_vs_retry(
    result: FigureResult,
    column: str,
    axis: str,
    values: Iterable[Any],
    **match: Any,
) -> list[float]:
    """Canary's percent reduction of *column* vs retry at each *axis* value.

    ``match`` narrows both rows further (e.g. ``workload="graph-bfs"``);
    points where retry's value is zero are skipped.
    """
    reductions = []
    for value in values:
        point = {axis: value, **match}
        retry = result.value(column, strategy="retry", **point)
        canary = result.value(column, strategy="canary", **point)
        if retry > 0:
            reductions.append(pct_reduction(canary, retry))
    return reductions
