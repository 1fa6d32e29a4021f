"""Strategy interface: how functions launch and how failures are handled."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

from repro.common.types import RecoveryStrategyName

#: Seconds between a container dying and the Core Module noticing (the
#: health-poll interval) when the heartbeat detector is off.  Charged to
#: every recovery strategy.
DETECTION_DELAY_S = 1.0

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.canary import CanaryPlatform
    from repro.core.execution import Attempt, FunctionExecution
    from repro.core.jobs import Job
    from repro.metrics.collector import FailureEvent


class RecoveryStrategy(ABC):
    """Pluggable policy for launching functions and recovering failures.

    Attributes:
        name: Which §V scenario this implements.
        checkpoints_enabled: Whether executions record checkpoints.
        replication_enabled: Whether the Replication Module maintains warm
            replica pools for this strategy.
    """

    name: RecoveryStrategyName
    checkpoints_enabled: bool = False
    replication_enabled: bool = False

    def __init__(self, platform: CanaryPlatform) -> None:
        self.platform = platform

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_job_start(self, job: "Job") -> None:
        """Called after a job is admitted, before functions launch."""

    def on_job_complete(self, job: "Job") -> None:
        """Called when every function of the job has completed."""

    def launch_function(self, execution: "FunctionExecution") -> None:
        """Start the first attempt(s) of a function."""
        execution.request_cold_attempt(via="launch")

    @abstractmethod
    def on_failure(
        self,
        execution: "FunctionExecution",
        attempt: "Attempt",
        event: "FailureEvent",
    ) -> None:
        """React to the loss of the function's last live attempt."""

    def on_sibling_loss(
        self,
        execution: "FunctionExecution",
        attempt: "Attempt",
        event: "FailureEvent",
    ) -> None:
        """React to the loss of one attempt while others survive.

        Only meaningful for strategies that run concurrent attempts
        (request replication replaces the dead sibling); default no-op.
        """

    def on_function_complete(self, execution: "FunctionExecution") -> None:
        """Called once per function at successful completion."""
        if self.platform.replication is not None:
            self.platform.replication.observe_function_success(
                execution.profile.runtime, job=execution.job
            )

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def after_detection(
        self, callback, label: str, *, node_id: Optional[str] = None
    ) -> None:
        """Run *callback* once the platform detects the failure.

        With the heartbeat detector enabled (and the failing node known),
        detection latency is emergent: the callback fires when the node's
        next status heartbeat arrives or when the detector declares the
        node dead.  Otherwise the paper's constant-delay oracle applies.
        """
        detection = self.platform.detection
        if detection is not None and node_id is not None:
            detection.notify_after_detection(node_id, callback, label=label)
            return
        self.platform.sim.call_in(DETECTION_DELAY_S, callback, label=label)
