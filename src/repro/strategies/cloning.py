"""First-finisher request cloning (S40).

Clone-to-k with first-finisher-wins, after "Modeling of Request Cloning in
Cloud Server Systems using Processor Sharing": every invocation runs as
``clones`` concurrent copies placed on *distinct* nodes through the S39
placement policy (each launch feeds the nodes already holding a copy into
``avoid_nodes``, so the spread rides the policy's ranking instead of a
bespoke scatter rule).  The first copy to finish wins;
``FunctionExecution._complete`` cancels the losers: a loser folded into
one segment event (copies write no checkpoints, so they fold even on a
fabric) is first settled, its states up to now materialised; then its
timers (including in-flight flow handles) are cancelled, its container
terminated, and its KV ownership released, so a lost race leaks nothing.

Unlike request replication (a fixed *extra* degree on top of a primary),
cloning is degree-exact: it keeps the copy count at ``clones`` by replacing
any copy lost to a failure, and only restarts the full complement when
every copy has died.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.types import RecoveryStrategyName
from repro.strategies.base import RecoveryStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.execution import Attempt, FunctionExecution
    from repro.metrics.collector import FailureEvent


@dataclass(frozen=True)
class CloningConfig:
    """Cloning degree: total concurrent copies per invocation (>= 2)."""

    clones: int = 2

    def __post_init__(self) -> None:
        if self.clones < 2:
            raise ValueError("clones must be >= 2 (1 copy is plain retry)")


class CloningStrategy(RecoveryStrategy):
    """Clone each invocation to k nodes; first finisher wins."""

    name = RecoveryStrategyName.CLONING
    checkpoints_enabled = False
    replication_enabled = False

    def __init__(self, platform) -> None:
        super().__init__(platform)
        self.config: CloningConfig = platform.scenario.cloning or CloningConfig()

    def launch_function(self, execution: "FunctionExecution") -> None:
        self._launch_complement(execution)

    def _live_nodes(self, execution: "FunctionExecution") -> set[str]:
        return {
            attempt.container.node.node_id
            for attempt in execution.live_attempts()
        }

    def _launch_clones(
        self, execution: "FunctionExecution", count: int, *, secondary: bool
    ) -> None:
        """Launch *count* copies, spreading across nodes via the policy.

        Each placed copy's node joins the avoid set for the next, so the
        S39 policy ranks among the remaining nodes; when the cluster has
        fewer free nodes than copies the avoid filter degrades softly
        (``avoid_nodes`` starves before ``_pick_node``'s fallback, so the
        queue, not a crash, absorbs the overflow).
        """
        avoid = self._live_nodes(execution)
        first = not secondary
        for _ in range(count):
            request = execution.request_cold_attempt(
                secondary=not first, via="launch", avoid_nodes=frozenset(avoid)
            )
            first = False
            if request.container is not None:
                avoid.add(request.container.node.node_id)

    def _launch_complement(self, execution: "FunctionExecution") -> None:
        self._launch_clones(
            execution, self.config.clones, secondary=False
        )

    def on_failure(
        self,
        execution: "FunctionExecution",
        attempt: "Attempt",
        event: "FailureEvent",
    ) -> None:
        # Reached only when no copy survives: restart the complement.
        def _relaunch() -> None:
            if execution.completed:
                return
            self._launch_complement(execution)

        self.after_detection(
            _relaunch,
            label=f"clone-restart:{execution.function_id}",
            node_id=event.node_id,
        )

    def on_sibling_loss(
        self,
        execution: "FunctionExecution",
        attempt: "Attempt",
        event: "FailureEvent",
    ) -> None:
        # Keep the cloning degree: replace the lost copy, avoiding both
        # the failed node and every node still holding a live copy.
        def _replace() -> None:
            if execution.completed:
                return
            live = self._live_nodes(execution)
            deficit = self.config.clones - len(live)
            if deficit <= 0:
                return
            avoid = live | {event.node_id}
            for _ in range(deficit):
                request = execution.request_cold_attempt(
                    secondary=True, via="cold", avoid_nodes=frozenset(avoid)
                )
                if request.container is not None:
                    avoid.add(request.container.node.node_id)

        self.after_detection(
            _replace,
            label=f"clone-replace:{execution.function_id}",
            node_id=event.node_id,
        )
