"""The node autoscaler: EWMA-driven scale-out/scale-in with drains.

The cluster is built at ``max_nodes`` up front — the fabric topology and
the detection module both see a fixed node universe — and
nodes beyond the initial count start *deprovisioned* (``Node.provisioned``
False, invisible to placement).  Scaling out provisions one of them after a
boot delay plus a registry image pull (a real contended flow when the S33
fabric is enabled); scaling in cordons the emptiest node, waits for its
containers to drain, then retires it.  Detection coverage follows the
provisioned set via ``watch_node``/``retire_node``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.autoscale.config import AutoscaleConfig
from repro.trace.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.detection.monitor import DetectionModule
    from repro.faas.controller import FaaSController
    from repro.network.fabric import FlowNetwork
    from repro.sim.engine import Simulator

#: Decision-loop period on the virtual clock.
CHECK_INTERVAL_S = 1.0
#: Smoothing factor of the utilization EWMA.
EWMA_ALPHA = 0.3
#: Hysteresis band: scale out above ``SCALE_OUT_UTIL``, in below
#: ``SCALE_IN_UTIL``.
SCALE_OUT_UTIL = 0.80
SCALE_IN_UTIL = 0.30
#: Controller queue depth that forces a scale-out signal regardless of
#: utilization.
QUEUE_DEPTH_HIGH = 8
#: Image prefetched onto a booting node; with the S33 fabric enabled the
#: pull is a real registry flow competing for bandwidth.
IMAGE_SIZE_BYTES = 450.0 * 2**20
#: Cadence at which a cordoned node is checked for emptiness before
#: retiring.
DRAIN_POLL_S = 0.5


class NodeAutoscaler:
    """Scales the provisioned node set between ``min_nodes`` and
    ``max_nodes`` from queue depth and a utilization EWMA."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: "Cluster",
        controller: "FaaSController",
        config: AutoscaleConfig,
        *,
        network: Optional["FlowNetwork"] = None,
        detection: Optional["DetectionModule"] = None,
        extra_backlog: Optional[Callable[[], int]] = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.controller = controller
        self.config = config
        self.network = network
        self.detection = detection
        self.tracer = tracer
        #: platform-level queued jobs (validator queue) folded into the
        #: backlog signal alongside the controller's container queue
        self._extra_backlog = extra_backlog
        self._should_continue: Optional[Callable[[], bool]] = None
        self._running = False
        self._booting: set[str] = set()
        self._draining: set[str] = set()
        self.util_ewma = 0.0
        self._ewma_primed = False
        self._last_out_at = float("-inf")
        self._last_in_at = float("-inf")
        # Statistics.
        self.scale_outs = 0
        self.scale_ins = 0
        self.nodes_peak = self.provisioned_count()
        #: (virtual time, "out"/"in", node_id) — the ramp record benches plot
        self.events: list[tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def provisioned_count(self) -> int:
        return sum(1 for n in self.cluster.nodes if n.provisioned)

    def utilization(self) -> float:
        """Busy container slots over provisioned-and-alive capacity."""
        capacity = busy = 0
        for node in self.cluster.nodes:
            if node.provisioned and node.alive:
                capacity += node.profile.container_slots
                busy += len(node.containers)
        if capacity == 0:
            return 1.0
        return busy / capacity

    def backlog(self) -> int:
        depth = self.controller.queue_depth()
        if self._extra_backlog is not None:
            depth += self._extra_backlog()
        return depth

    # ------------------------------------------------------------------
    # Decision loop
    # ------------------------------------------------------------------
    def ensure_running(self, should_continue: Callable[[], bool]) -> None:
        """Arm the decision loop (idempotent; restartable after a stop)."""
        self._should_continue = should_continue
        if self._running:
            return
        self._running = True
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        self.sim.call_in(CHECK_INTERVAL_S, self._tick, label="autoscale-tick")

    def _tick(self) -> None:
        if self._should_continue is not None and not self._should_continue():
            # Idle platform: stop sampling so the run can drain.  Any
            # in-flight drain polls finish on their own.
            self._running = False
            return
        sample = self.utilization()
        if not self._ewma_primed:
            # Prime with the first sample: warming up from zero would read
            # as idleness and trigger a spurious scale-in at start-up.
            self.util_ewma = sample
            self._ewma_primed = True
        else:
            self.util_ewma += EWMA_ALPHA * (sample - self.util_ewma)
        self._decide()
        self._schedule_tick()

    def _decide(self) -> None:
        now = self.sim.now
        provisioned = self.provisioned_count()
        pressure = (
            self.util_ewma > SCALE_OUT_UTIL
            or self.backlog() >= QUEUE_DEPTH_HIGH
        )
        if (
            pressure
            and provisioned + len(self._booting) < self.config.max_nodes
            and now - self._last_out_at >= self.config.cooldown_out_s
        ):
            self._scale_out()
            return
        idle = (
            self.util_ewma < SCALE_IN_UTIL
            and self.backlog() == 0
        )
        if (
            idle
            and provisioned - len(self._draining) > self.config.min_nodes
            and now - self._last_in_at >= self.config.cooldown_in_s
        ):
            self._scale_in()

    # ------------------------------------------------------------------
    # Scale-out: boot + image pull, then join
    # ------------------------------------------------------------------
    def _scale_out(self) -> None:
        candidates = [
            n
            for n in self.cluster.nodes
            if not n.provisioned and n.alive and n.node_id not in self._booting
        ]
        if not candidates:
            return
        node = min(candidates, key=lambda n: n.index)
        self._last_out_at = self.sim.now
        self._booting.add(node.node_id)
        self.tracer.instant(
            "autoscale", f"scale-out:{node.node_id}", node=node.node_id
        )

        def _pull_then_join() -> None:
            if self.network is not None:
                self.network.image_pull(
                    dest_node=node.node_id,
                    size_bytes=IMAGE_SIZE_BYTES,
                    on_complete=lambda: self._join(node),
                    label=f"autoscale-pull:{node.node_id}",
                )
            else:
                self._join(node)

        self.sim.call_in(
            self.config.boot_delay_s,
            _pull_then_join,
            label=f"autoscale-boot:{node.node_id}",
        )

    def _join(self, node: "Node") -> None:
        self._booting.discard(node.node_id)
        if not node.alive:
            return  # died while booting; capacity never materialized
        node.provisioned = True
        self.scale_outs += 1
        self.events.append((self.sim.now, "out", node.node_id))
        self.nodes_peak = max(self.nodes_peak, self.provisioned_count())
        if self.detection is not None:
            self.detection.watch_node(node)
        # Fresh capacity: re-drive the container queue immediately.
        self.controller.kick()

    # ------------------------------------------------------------------
    # Scale-in: cordon, drain, retire
    # ------------------------------------------------------------------
    def _scale_in(self) -> None:
        candidates = [
            n
            for n in self.cluster.nodes
            if n.provisioned
            and n.alive
            and not n.cordoned
            and n.node_id not in self._draining
        ]
        if not candidates:
            return
        # Drain the emptiest node; highest index breaks ties so the node
        # set shrinks from the top, mirroring how it grew.
        node = min(candidates, key=lambda n: (len(n.containers), -n.index))
        self._last_in_at = self.sim.now
        self._draining.add(node.node_id)
        node.cordoned = True
        self.tracer.instant(
            "autoscale", f"drain:{node.node_id}", node=node.node_id
        )
        self._poll_drain(node)

    def _poll_drain(self, node: "Node") -> None:
        if not node.alive:
            # Failed mid-drain: nothing left to wait for.
            self._retire(node)
            return
        if not node.containers and node.cold_starts_in_flight == 0:
            self._retire(node)
            return
        self.sim.call_in(
            DRAIN_POLL_S,
            lambda: self._poll_drain(node),
            label=f"autoscale-drain:{node.node_id}",
        )

    def _retire(self, node: "Node") -> None:
        self._draining.discard(node.node_id)
        node.provisioned = False
        node.cordoned = False
        self.scale_ins += 1
        self.events.append((self.sim.now, "in", node.node_id))
        if self.detection is not None:
            self.detection.retire_node(node.node_id)
        self.tracer.instant(
            "autoscale", f"retire:{node.node_id}", node=node.node_id
        )
