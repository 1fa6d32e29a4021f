"""Trace collection.

The central performance metric is the paper's *recovery time*: for each
injected failure, the time from the kill until the function regains the
execution progress (completed states) it had when killed.  For the default
retry strategy that spans a fresh cold start plus re-execution of everything;
for Canary it spans detection, replica adoption, checkpoint restore, and
re-execution of the states since the last checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class FunctionTrace:
    """Lifecycle trace of one logical function invocation."""

    function_id: str
    job_id: str
    workload: str
    submitted_at: float
    first_ready_at: Optional[float] = None
    completed_at: Optional[float] = None
    attempts: int = 0
    checkpoints: int = 0
    checkpoint_time_s: float = 0.0
    failures: list[FailureEvent] = field(default_factory=list)

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def failed(self) -> bool:
        return bool(self.failures)


class MetricsCollector:
    """Accumulates traces for one simulated run."""

    def __init__(self) -> None:
        self.traces: dict[str, FunctionTrace] = {}
        self.failures: list[FailureEvent] = []
        # Graceful-degradation accounting (chaos/backoff layer); all stay
        # zero when no backoff policy is configured.
        self.backoff_waits = 0
        self.backoff_wait_s = 0.0
        self.restore_fallbacks = 0

    def note_backoff(self, wait_s: float) -> None:
        self.backoff_waits += 1
        self.backoff_wait_s += wait_s

    # ------------------------------------------------------------------
    # Trace lifecycle
    # ------------------------------------------------------------------
    def start_function(
        self, function_id: str, job_id: str, workload: str, now: float
    ) -> FunctionTrace:
        if function_id in self.traces:
            raise KeyError(f"duplicate trace for {function_id}")
        trace = FunctionTrace(
            function_id=function_id,
            job_id=job_id,
            workload=workload,
            submitted_at=now,
        )
        self.traces[function_id] = trace
        return trace

    def trace(self, function_id: str) -> FunctionTrace:
        return self.traces[function_id]

    def note_attempt(self, function_id: str) -> None:
        self.traces[function_id].attempts += 1

    def note_ready(self, function_id: str, now: float) -> None:
        trace = self.traces[function_id]
        if trace.first_ready_at is None:
            trace.first_ready_at = now

    def note_checkpoint(self, function_id: str, duration_s: float) -> None:
        trace = self.traces[function_id]
        trace.checkpoints += 1
        trace.checkpoint_time_s += duration_s

    def note_completed(self, function_id: str, now: float) -> None:
        self.traces[function_id].completed_at = now

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def record_failure(self, event: FailureEvent) -> None:
        self.failures.append(event)
        self.traces[event.function_id].failures.append(event)

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

    def completed_count(self) -> int:
        return sum(1 for t in self.traces.values() if t.completed_at is not None)
