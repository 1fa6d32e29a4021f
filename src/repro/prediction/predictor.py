"""Node health scoring from fault bursts and hardware age.

Real node deaths are usually preceded by a burst of anomalies (correctable
memory errors, process crashes).  In the reproduction those show up as
container losses attributed to a node; the predictor keeps a sliding
window of them and weights the count by the node's hardware-age failure
weight: an old SKU with two recent faults is more alarming than a new one
with three.
"""

from __future__ import annotations

import collections
from typing import Deque

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node

#: Faults older than this no longer count.
WINDOW_S = 10.0
#: Nodes whose score reaches this are predicted to fail imminently.
RISK_THRESHOLD = 2.0


class NodeHealthPredictor:
    """Sliding-window fault-burst detector per node.

    Args:
        cluster: The cluster whose nodes are scored.
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._events: dict[str, Deque[float]] = collections.defaultdict(
            collections.deque
        )
        self.observations = 0

    # ------------------------------------------------------------------
    def observe_fault(self, node_id: str, now: float) -> None:
        """Record a container fault attributed to *node_id*."""
        self._events[node_id].append(now)
        self.observations += 1

    def _trim(self, node_id: str, now: float) -> None:
        events = self._events[node_id]
        while events and events[0] < now - WINDOW_S:
            events.popleft()

    def risk(self, node: Node, now: float) -> float:
        """Weighted recent-fault score for *node*."""
        self._trim(node.node_id, now)
        recent = len(self._events[node.node_id])
        if recent == 0:
            return 0.0
        return recent * node.profile.failure_weight

    def predict_failing(self, now: float) -> list[Node]:
        """Alive nodes whose risk score crosses the threshold."""
        return [
            node
            for node in self.cluster.alive_nodes()
            if self.risk(node, now) >= RISK_THRESHOLD
        ]

    def clear(self, node_id: str) -> None:
        """Forget a node's history (after it was drained or replaced)."""
        self._events.pop(node_id, None)
