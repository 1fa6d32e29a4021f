"""Failure log.

The central performance metric is the paper's *recovery time*: for each
injected failure, the time from the kill until the function regains the
execution progress (completed states) it had when killed.  For the default
retry strategy that spans a fresh cold start plus re-execution of everything;
for Canary it spans detection, replica adoption, checkpoint restore, and
re-execution of the states since the last checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class FailureEvent:
    """One injected (or node-induced) failure of one function."""

    function_id: str
    job_id: str
    kill_time: float
    #: continuous progress (completed states + in-flight fraction) at the
    #: kill instant — the target the recovery must regain
    progress_states: float
    reason: str
    resume_time: Optional[float] = None   # new attempt begins state work
    resumed_from_state: Optional[int] = None
    recovered_at: Optional[float] = None  # pre-failure progress regained
    recovered_via: str = ""               # replica / cold / standby / sibling
    #: node hosting the killed container — lets the heartbeat detector
    #: route the recovery callback (None for legacy events)
    node_id: Optional[str] = None

    @property
    def recovery_time(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.kill_time


class MetricsCollector:
    """The failure log of one simulated run.

    Per-function results (completion, latency, attempts, checkpoint time)
    are read from the executions themselves; this keeps only what no
    execution holds: every failure event, in order, and the time restores
    spent backing off from browned-out tiers.
    """

    def __init__(self) -> None:
        self.failures: list[FailureEvent] = []
        # Graceful-degradation accounting (chaos/backoff layer); stays
        # zero when no backoff policy is configured.
        self.backoff_wait_s = 0.0

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def record_failure(self, event: FailureEvent) -> None:
        self.failures.append(event)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_recovery_time(self) -> float:
        return sum(
            e.recovery_time for e in self.failures if e.recovery_time is not None
        )

    def mean_recovery_time(self) -> float:
        times = [
            e.recovery_time for e in self.failures if e.recovery_time is not None
        ]
        return sum(times) / len(times) if times else 0.0

    def unrecovered_failures(self) -> list[FailureEvent]:
        return [e for e in self.failures if e.recovered_at is None]
