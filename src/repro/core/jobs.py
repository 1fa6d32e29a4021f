"""Job abstractions: what users submit and what the platform tracks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.common.types import JobState, ReplicationStrategyName
from repro.workloads.profiles import WorkloadProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.execution import FunctionExecution
    from repro.sla.policy import SLAPolicy


@dataclass(frozen=True)
class JobRequest:
    """A user's job submission.

    Attributes:
        workload: Profile describing each function of the job.
        num_functions: How many function invocations the job launches.
        checkpoint_interval: Checkpoint every k-th state (1 = every state,
            the implicit default; larger = explicit, coarser checkpointing).
        replication_strategy: DR/AR/LR policy for the job's replicas.
        memory_bytes: Optional per-function memory override.
        timeout_s: Optional per-function timeout override.
        sla: Optional user requirements (deadlines) consumed by the
            SLA-aware recovery strategy.
    """

    workload: WorkloadProfile
    num_functions: int
    checkpoint_interval: int = 1
    replication_strategy: ReplicationStrategyName = (
        ReplicationStrategyName.DYNAMIC
    )
    memory_bytes: Optional[float] = None
    timeout_s: Optional[float] = None
    sla: Optional["SLAPolicy"] = None

    def __post_init__(self) -> None:
        if self.num_functions <= 0:
            raise ValueError("num_functions must be positive")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")

    @property
    def function_memory_bytes(self) -> float:
        return (
            self.memory_bytes
            if self.memory_bytes is not None
            else self.workload.memory_bytes
        )


@dataclass
class Job:
    """A validated, admitted job."""

    job_id: str
    request: JobRequest
    state: JobState = JobState.SUBMITTED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    executions: list["FunctionExecution"] = field(default_factory=list)
    #: Executions that have completed; bumped only where
    #: ``FunctionExecution._complete`` sets ``completed``, so progress
    #: queries on every completion are O(1) instead of a scan.
    completed_count: int = 0

    @property
    def workload(self) -> WorkloadProfile:
        return self.request.workload

    @property
    def num_functions(self) -> int:
        return self.request.num_functions

    def remaining(self) -> int:
        """Functions not yet completed.

        Falls back to the full function count before executions are
        attached, so consumers (e.g. replication targets) never see a
        spurious zero during job admission.
        """
        if not self.executions:
            return self.num_functions
        return len(self.executions) - self.completed_count

    @property
    def done(self) -> bool:
        return bool(self.executions) and self.completed_count == len(
            self.executions
        )

    def makespan(self) -> Optional[float]:
        """Submission-to-last-completion time; None while running."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at
