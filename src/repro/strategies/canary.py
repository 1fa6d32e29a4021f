"""The Canary recovery strategy (§IV): replicas + checkpoints.

Recovery path on function failure:

1. the Core Module detects the failure (detection delay);
2. the Checkpointing Module is queried for the latest *available*
   checkpoint (older generations are used when the newest died with a
   node-local tier);
3. the Runtime Manager maps the function to the best warm replicated
   runtime — no cold start; if none is warm but replacements are already
   launching, the function briefly waits for one (bounded by a fallback
   timer), matching §V-D-1's "wait for the replicated runtimes to be ready"
   under failure bursts; otherwise it falls back to a cold container;
4. the function restores the checkpoint and resumes from the state after it.

Ablation subclasses disable one of the two mechanisms to isolate its
contribution (used by the fig. 4/6 companion ablation benches).
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Optional

from repro.checkpoint.records import CheckpointRecord
from repro.common.types import RecoveryStrategyName, RuntimeKind
from repro.strategies.base import RecoveryStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.canary import CanaryPlatform
    from repro.core.execution import Attempt, FunctionExecution
    from repro.metrics.collector import FailureEvent


class CanaryStrategy(RecoveryStrategy):
    """Full Canary: checkpoint restore on warm replicated runtimes."""

    name = RecoveryStrategyName.CANARY
    checkpoints_enabled = True
    replication_enabled = True

    #: Safety factor on the cold-start estimate used for the wait-fallback
    #: timer: waiting longer than a cold start would never pay off.
    WAIT_FALLBACK_FACTOR = 1.5

    def __init__(self, platform: CanaryPlatform) -> None:
        super().__init__(platform)
        self._waiters: dict[RuntimeKind, collections.deque] = {}
        platform.runtime_manager.on_replica_available(self._replica_available)
        self.recoveries_via_replica = 0
        self.recoveries_via_cold = 0
        self.recoveries_waited = 0

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def on_failure(
        self,
        execution: "FunctionExecution",
        attempt: "Attempt",
        event: "FailureEvent",
    ) -> None:
        failed_node = attempt.container.node if attempt is not None else None
        if self.platform.replication is not None:
            self.platform.replication.observe_function_failure(
                execution.profile.runtime
            )

        def _recover() -> None:
            if execution.completed:
                return
            record = self._latest_checkpoint(execution)
            self._recover_onto_runtime(execution, record, failed_node)

        self.after_detection(
            _recover,
            label=f"canary:{execution.function_id}",
            node_id=event.node_id,
        )

    def _latest_checkpoint(
        self, execution: "FunctionExecution"
    ) -> Optional[CheckpointRecord]:
        if not self.checkpoints_enabled:
            return None
        return self.platform.checkpointer.latest(execution.function_id)

    def _resume_state(self, record: Optional[CheckpointRecord]) -> int:
        return 0 if record is None else record.state_index + 1

    def _recover_onto_runtime(
        self,
        execution: "FunctionExecution",
        record: Optional[CheckpointRecord],
        failed_node,
    ) -> None:
        platform = self.platform
        kind = execution.profile.runtime
        if self.replication_enabled:
            replica = platform.runtime_manager.claim_replica(
                kind, execution.function_id, failed_node=failed_node
            )
            if replica is not None:
                self.recoveries_via_replica += 1
                execution.begin_attempt(
                    replica,
                    from_state=self._resume_state(record),
                    restore_record=record,
                    via="replica",
                    adoption=True,
                )
                return
            if self._replicas_inflight(kind) > len(self._waiters.get(kind, ())):
                self._enqueue_waiter(execution, record)
                return
        self._cold_recover(execution, record)

    def _cold_recover(
        self,
        execution: "FunctionExecution",
        record: Optional[CheckpointRecord],
    ) -> None:
        self.recoveries_via_cold += 1
        execution.request_cold_attempt(
            from_state=self._resume_state(record),
            restore_record=record,
            via="cold",
        )

    # ------------------------------------------------------------------
    # Waiting for an in-flight replica
    # ------------------------------------------------------------------
    def _replicas_inflight(self, kind: RuntimeKind) -> int:
        if self.platform.replication is None:
            return 0
        return self.platform.replication.current_for_kind(
            kind
        ) - self.platform.runtime_manager.replica_count(kind)

    def _enqueue_waiter(
        self,
        execution: "FunctionExecution",
        record: Optional[CheckpointRecord],
    ) -> None:
        kind = execution.profile.runtime
        queue = self._waiters.setdefault(kind, collections.deque())
        entry = {"execution": execution, "record": record, "served": False}
        queue.append(entry)
        self.recoveries_waited += 1
        runtime = self.platform.controller.runtimes.get(kind)
        fallback_after = runtime.cold_start_s * self.WAIT_FALLBACK_FACTOR

        def _fallback() -> None:
            if entry["served"] or execution.completed:
                return
            entry["served"] = True
            self._cold_recover(execution, record)

        self.platform.sim.call_in(
            fallback_after,
            _fallback,
            label=f"wait-fallback:{execution.function_id}",
        )

    def _replica_available(self, kind: RuntimeKind) -> None:
        queue = self._waiters.get(kind)
        if not queue:
            return
        while queue:
            entry = queue.popleft()
            if entry["served"] or entry["execution"].completed:
                continue
            execution = entry["execution"]
            replica = self.platform.runtime_manager.claim_replica(
                kind, execution.function_id
            )
            if replica is None:
                queue.appendleft(entry)
                return
            entry["served"] = True
            self.recoveries_via_replica += 1
            execution.begin_attempt(
                replica,
                from_state=self._resume_state(entry["record"]),
                restore_record=entry["record"],
                via="replica",
                adoption=True,
            )
            return


class CanaryReplicationOnlyStrategy(CanaryStrategy):
    """Ablation: warm replicas but no checkpoints (restart from state 0)."""

    name = RecoveryStrategyName.CANARY_REPLICATION_ONLY
    checkpoints_enabled = False
    replication_enabled = True


class CanaryCheckpointOnlyStrategy(CanaryStrategy):
    """Ablation: checkpoint restore but cold containers (no replicas)."""

    name = RecoveryStrategyName.CANARY_CHECKPOINT_ONLY
    checkpoints_enabled = True
    replication_enabled = False
