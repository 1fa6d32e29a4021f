"""SLA-aware Canary recovery.

Extends the Canary strategy with the user-requirement logic of §VII:

* **COMFORTABLE** slack → recover in a *cold* container even when a warm
  replica is idle, preserving the (expensive) pool for functions that need
  it and keeping the replica spend minimal;
* **TIGHT** slack → standard Canary behaviour (replica if warm, else wait
  briefly, else cold);
* **CRITICAL** slack → claim a replica at all costs: if none is warm the
  strategy *escalates* — it asks the Replication Module to launch an extra
  replica immediately and waits for it rather than paying a (slower,
  contention-prone) cold start.

Deadline outcomes are tallied per function at completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.checkpoint.records import CheckpointRecord
from repro.common.types import RecoveryStrategyName
from repro.sla.policy import SLAPolicy, SlackClass, classify_slack
from repro.strategies.canary import CanaryStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.canary import CanaryPlatform
    from repro.core.execution import FunctionExecution


class SlaAwareCanaryStrategy(CanaryStrategy):
    """Canary recovery that spends replicas where deadlines demand them."""

    name = RecoveryStrategyName.CANARY_SLA

    def __init__(self, platform: CanaryPlatform) -> None:
        super().__init__(platform)
        self.deadline_hits = 0
        self.deadline_misses = 0
        self.pool_preserved = 0   # comfortable recoveries routed cold
        self.escalations = 0      # critical recoveries that grew the pool

    # ------------------------------------------------------------------
    def _policy_for(self, execution: "FunctionExecution") -> Optional[SLAPolicy]:
        return execution.job.request.sla

    def _slack_class(
        self,
        execution: "FunctionExecution",
        record: Optional[CheckpointRecord],
    ) -> SlackClass:
        policy = self._policy_for(execution)
        if policy is None:
            return SlackClass.NONE
        resume_state = self._resume_state(record)
        runtime = self.platform.controller.runtimes.get(execution.profile.runtime)
        return classify_slack(
            policy,
            now=self.platform.sim.now,
            submitted_at=execution.job.submitted_at,
            estimated_remaining_s=execution.estimated_remaining_work_s(
                resume_state
            ),
            cold_start_s=runtime.cold_start_s,
        )

    # ------------------------------------------------------------------
    def _recover_onto_runtime(
        self,
        execution: "FunctionExecution",
        record: Optional[CheckpointRecord],
        failed_node,
    ) -> None:
        slack = self._slack_class(execution, record)
        if slack is SlackClass.COMFORTABLE:
            # Plenty of headroom: a cold container meets the deadline and
            # leaves the warm pool for functions that actually need it.
            self.pool_preserved += 1
            self._cold_recover(execution, record)
            return
        if slack is SlackClass.CRITICAL and self.replication_enabled:
            kind = execution.profile.runtime
            replica = self.platform.runtime_manager.claim_replica(
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
            # No warm replica: escalate the pool and wait for the new one
            # instead of falling back to a cold start.
            if self.platform.replication is not None:
                self.escalations += 1
                self.platform.replication._launch_replica(kind)
            self._enqueue_waiter(execution, record)
            return
        # TIGHT / NONE: standard Canary path.
        super()._recover_onto_runtime(execution, record, failed_node)

    # ------------------------------------------------------------------
    def on_function_complete(self, execution: "FunctionExecution") -> None:
        super().on_function_complete(execution)
        policy = self._policy_for(execution)
        if policy is None or policy.deadline_s is None:
            return
        if execution.latency <= policy.deadline_s:
            self.deadline_hits += 1
        else:
            self.deadline_misses += 1
