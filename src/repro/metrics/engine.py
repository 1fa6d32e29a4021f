"""Engine metrics: event-queue health.

Companion to :mod:`repro.sim` — turns the engine's internal counters into
flat, regression-friendly numbers.  The queue counters (live/cancelled
entries, compactions, peak heap size) make cancellation-garbage pressure
visible.

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
    heap_size: int
    cancelled_pending: int
    pushes: int
    peak_heap_size: int
    compactions: int
    compaction_threshold: int

    @property
    def cancelled_total(self) -> int:
        """Events scheduled but never fired (cancelled before firing)."""
        return self.pushes - self.events_processed - self.pending


def collect_engine_stats(sim: Simulator) -> EngineStats:
    """Snapshot the queue-health counters of *sim*."""
    queue = sim._queue
    return EngineStats(
        events_processed=sim.events_processed,
        pending=len(queue),
        heap_size=queue.heap_size,
        cancelled_pending=queue.cancelled_pending,
        pushes=queue.pushes,
        peak_heap_size=queue.peak_heap_size,
        compactions=queue.compactions,
        compaction_threshold=queue.compaction_threshold,
    )


def format_engine_stats(stats: EngineStats) -> str:
    """Fixed-width queue-health block (printed next to the trace stats)."""
    return (
        f"{'event queue':18s} {'fired':>9s} {'sched':>9s} {'cancel':>7s} "
        f"{'peak':>7s} {'compact':>7s}\n"
        f"{'':18s} {stats.events_processed:9d} {stats.pushes:9d} "
        f"{stats.cancelled_total:7d} {stats.peak_heap_size:7d} "
        f"{stats.compactions:7d}"
    )
