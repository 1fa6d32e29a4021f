"""Per-span-kind aggregate statistics (count, total, p50, p99).

The summary companion of a trace: where the run's time went, by span kind,
in the same shape the paper's §V time-accounting uses (queueing vs cold
start vs restore vs redone work).  Surfaced next to ``RunSummary`` by the
``canary-sim trace`` subcommand and :class:`repro.experiments.runner.TracedRun`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.trace.tracer import Span


def _percentile(ordered: list[float], q: float) -> float:
    """Percentile of an ascending-sorted non-empty list, interpolated
    linearly between the two closest ranks (numpy's default method)."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


@dataclass(frozen=True)
class SpanKindStats:
    """Duration statistics of every finished span of one kind."""

    kind: str
    count: int
    total_s: float
    mean_s: float
    p50_s: float
    p99_s: float
    max_s: float


def aggregate_spans(spans: Iterable[Span]) -> dict[str, SpanKindStats]:
    """Aggregate finished spans by kind; keys are sorted for determinism."""
    durations: dict[str, list[float]] = {}
    for span in spans:
        if span.duration is None:
            continue
        durations.setdefault(span.kind, []).append(span.duration)
    out: dict[str, SpanKindStats] = {}
    for kind in sorted(durations):
        values = sorted(durations[kind])
        total = sum(values)
        out[kind] = SpanKindStats(
            kind=kind,
            count=len(values),
            total_s=total,
            mean_s=total / len(values),
            p50_s=_percentile(values, 0.50),
            p99_s=_percentile(values, 0.99),
            max_s=values[-1],
        )
    return out


def format_stats_table(stats: dict[str, SpanKindStats]) -> str:
    """Fixed-width table of per-kind stats (printed next to the summary)."""
    lines = [
        f"{'span kind':18s} {'count':>7s} {'total':>10s} {'mean':>9s} "
        f"{'p50':>9s} {'p99':>9s} {'max':>9s}"
    ]
    for kind, entry in stats.items():
        lines.append(
            f"{kind:18s} {entry.count:7d} {entry.total_s:9.3f}s "
            f"{entry.mean_s:8.4f}s {entry.p50_s:8.4f}s "
            f"{entry.p99_s:8.4f}s {entry.max_s:8.4f}s"
        )
    return "\n".join(lines)
