"""Engine metrics: event-queue health.

Companion to :mod:`repro.sim` — turns the engine's counters into flat,
regression-friendly numbers.  The counters (fired, scheduled, cancelled,
peak heap size) make cancellation pressure visible.

These live in a *separate* diagnostics channel rather than in
:class:`~repro.metrics.summary.RunSummary` on purpose: the summary is the
byte-compared results contract (golden pins, repeat-run identity), so it
must not grow fields that describe how the engine executed the run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Simulator


@dataclass(frozen=True)
class EngineStats:
    """Event-queue health counters of one finished (or running) engine."""

    events_processed: int
    pending: int
    pushes: int
    peak_heap_size: int

    @property
    def cancelled_total(self) -> int:
        """Events scheduled but never fired (cancelled before firing)."""
        return self.pushes - self.events_processed - self.pending


def collect_engine_stats(sim: Simulator) -> EngineStats:
    """Snapshot the queue-health counters of *sim*."""
    return EngineStats(
        events_processed=sim.events_processed,
        pending=sim.pending,
        pushes=sim.pushes,
        peak_heap_size=sim.peak_heap_size,
    )


def format_engine_stats(stats: EngineStats) -> str:
    """Fixed-width queue-health block (printed next to the trace stats)."""
    return (
        f"{'event queue':18s} {'fired':>9s} {'sched':>9s} {'cancel':>7s} "
        f"{'peak':>7s}\n"
        f"{'':18s} {stats.events_processed:9d} {stats.pushes:9d} "
        f"{stats.cancelled_total:7d} {stats.peak_heap_size:7d}"
    )
