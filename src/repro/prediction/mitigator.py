"""Proactive mitigation: cordon and drain nodes predicted to fail.

The mitigator ticks periodically on the virtual clock.  Each tick it asks
the predictor for nodes whose recent fault burst crosses the risk
threshold, then:

1. **cordons** the node — the scheduler places nothing new there;
2. **drains** it — every running function on the node checkpoint-migrates
   to a healthy node (warm replica first, cold container otherwise), and
   warm replicas parked there are retired so the Replication Module
   re-provisions them elsewhere.

If the prediction was right, the subsequent node death kills an empty (or
nearly empty) node; if it was wrong, the cost is a few early migrations
and some unused capacity.  The last schedulable node is never cordoned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.node import Node
from repro.common.types import ContainerState
from repro.faas.container import ContainerPurpose
from repro.prediction.predictor import NodeHealthPredictor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.canary import CanaryPlatform

#: Virtual seconds between mitigator ticks.
TICK_INTERVAL_S = 1.0


class ProactiveMitigator:
    """Drives prediction-based node cordoning and draining."""

    def __init__(
        self,
        platform: "CanaryPlatform",
        predictor: NodeHealthPredictor,
    ) -> None:
        self.platform = platform
        self.predictor = predictor
        self.migrations = 0
        self.cordons = 0
        self._running = False
        platform.controller.on_container_loss(self._observe_loss)

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _observe_loss(self, container, reason: str) -> None:
        # Node-level deaths need no prediction anymore; everything else on
        # a node (injected kills, precursors) feeds the burst detector.
        if reason.startswith("node-failure"):
            self.predictor.clear(container.node.node_id)
            return
        self.predictor.observe_fault(
            container.node.node_id, self.platform.sim.now
        )

    # ------------------------------------------------------------------
    # Tick loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin ticking; stops by itself once no job remains active."""
        if self._running:
            return
        self._running = True
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        self.platform.sim.call_in(
            TICK_INTERVAL_S, self._tick, label="mitigator-tick"
        )

    def _tick(self) -> None:
        platform = self.platform
        if not (platform._open_jobs > 0 or platform._pending_jobs):
            self._running = False
            return
        for node in self.predictor.predict_failing(platform.sim.now):
            self._drain(node)
        self._schedule_tick()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def _drain(self, node: Node) -> None:
        if node.cordoned or not node.alive:
            return
        if not any(
            other is not node
            and other.alive
            and other.provisioned
            and not other.cordoned
            for other in self.platform.cluster.nodes
        ):
            # Cordons are never lifted: cordoning the last schedulable
            # node would strand every queued container request.
            return
        node.cordoned = True
        self.cordons += 1
        for container in list(node.containers.values()):
            if container.terminal:
                continue
            if container.purpose == ContainerPurpose.FUNCTION:
                execution = self.platform.container_owners.get(
                    container.container_id
                )
                if execution is None:
                    continue
                attempt = execution._live.get(container.container_id)
                if attempt is not None and execution.migrate(attempt):
                    self.migrations += 1
            elif container.purpose == ContainerPurpose.REPLICA:
                # Retire doomed replicas; the Replication Module will
                # re-provision the pool on healthy nodes.
                self.platform.runtime_manager.unregister_replica(container)
                self.platform.controller.terminate(
                    container, ContainerState.KILLED
                )
                if self.platform.replication is not None:
                    self.platform.replication.reconcile(container.kind)
