"""Request replication (RR) baseline [65], compared in Fig. 10.

Every function request is executed by 1 + ``rr_replicas`` concurrent
containers; "the first successful response is accepted and the rest are
discarded".  Losing a sibling costs nothing as long as one survives; when
*all* siblings of a function die, the whole complement restarts from
scratch.  The cost of always running the extra containers is RR's downfall
(up to 2.7× Canary's cost in the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.types import RecoveryStrategyName
from repro.strategies.base import RecoveryStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.execution import Attempt, FunctionExecution
    from repro.metrics.collector import FailureEvent


class RequestReplicationStrategy(RecoveryStrategy):
    """Run every request on multiple instances; first success wins."""

    name = RecoveryStrategyName.REQUEST_REPLICATION
    checkpoints_enabled = False
    replication_enabled = False

    def launch_function(self, execution: "FunctionExecution") -> None:
        self._launch_complement(execution)

    def _launch_complement(self, execution: "FunctionExecution") -> None:
        execution.request_cold_attempt(via="launch")
        for _ in range(self.platform.config.rr_replicas):
            execution.request_cold_attempt(secondary=True, via="launch")

    def on_failure(
        self,
        execution: "FunctionExecution",
        attempt: "Attempt",
        event: "FailureEvent",
    ) -> None:
        # Reached only when no sibling survives: restart the complement.
        def _relaunch() -> None:
            if execution.completed:
                return
            self._launch_complement(execution)

        self.after_detection(
            _relaunch,
            label=f"rr-restart:{execution.function_id}",
            node_id=event.node_id,
        )

    def on_sibling_loss(
        self,
        execution: "FunctionExecution",
        attempt: "Attempt",
        event: "FailureEvent",
    ) -> None:
        # Keep the replication degree: replace the dead instance.  The
        # replacement starts from scratch (RR has no checkpoints), which is
        # pure cost unless every other sibling also dies.
        def _replace() -> None:
            if execution.completed:
                return
            execution.request_cold_attempt(secondary=True, via="cold")

        self.after_detection(
            _replace,
            label=f"rr-replace:{execution.function_id}",
            node_id=event.node_id,
        )
