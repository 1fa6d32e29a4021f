"""The cluster: a set of heterogeneous nodes plus placement queries."""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.cluster.heterogeneity import HeterogeneityModel
from repro.cluster.node import Node
from repro.cluster.topology import Topology
from repro.common.errors import PlacementError


class Cluster:
    """A fixed population of nodes with liveness and capacity queries.

    Args:
        num_nodes: Cluster size (the paper scales 1–16).
        heterogeneity: Profile assignment model; defaults to the Chameleon
            three-SKU mix.
        topology: Rack assignment; defaults to 4 racks.
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        heterogeneity: Optional[HeterogeneityModel] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.topology = topology or Topology()
        model = heterogeneity or HeterogeneityModel()
        self.nodes: list[Node] = [
            Node(
                node_id=f"node-{i:02d}",
                index=i,
                profile=model.profile_for(i),
                rack=self.topology.rack_for(i),
            )
            for i in range(num_nodes)
        ]
        self._by_id = {node.node_id: node for node in self.nodes}
        #: Free container slots summed over alive nodes.  Nodes keep it
        #: current on attach, detach and failure; at zero no node can host
        #: anything, so placement scans stop before touching a node.
        self.free_slot_bound = sum(node.slots_free for node in self.nodes)
        for node in self.nodes:
            node.cluster = self
        self._failure_listeners: list[Callable[[Node, list], None]] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterable[Node]:
        return iter(self.nodes)

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise PlacementError(f"unknown node {node_id!r}") from None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def alive_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.alive]

    def hosting_candidates(self, memory_bytes: float) -> list[Node]:
        """Alive nodes able to host a container of the given memory size."""
        if not self.free_slot_bound:
            return []
        return [n for n in self.nodes if n.can_host(memory_bytes)]

    def least_loaded(self, memory_bytes: float) -> Optional[Node]:
        """Candidate with the most free slots; speed breaks ties, then index.

        Preferring faster nodes on ties mirrors the paper's observation that
        heterogeneity-aware placement reduces recovery-time variance.
        """
        candidates = self.hosting_candidates(memory_bytes)
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda n: (n.slots_free, n.profile.speed_factor, -n.index),
        )

    def total_slots(self) -> int:
        return sum(n.profile.container_slots for n in self.alive_nodes())

    # ------------------------------------------------------------------
    # Node failure
    # ------------------------------------------------------------------
    def on_node_failure(self, listener: Callable[[Node, list], None]) -> None:
        """Register a callback invoked as ``listener(node, lost_containers)``."""
        self._failure_listeners.append(listener)

    def fail_node(self, node_id: str, at_time: float) -> list:
        """Kill a node; notify listeners; return the lost containers."""
        node = self.node(node_id)
        if not node.alive:
            return []
        lost = node.fail(at_time)
        for listener in self._failure_listeners:
            listener(node, lost)
        return lost

    def pick_failure_victim(
        self,
        rng: np.random.Generator,
        exclude: frozenset[str] = frozenset(),
    ) -> Optional[Node]:
        """Sample an alive node weighted by its profile's failure weight.

        ``exclude`` removes already-doomed nodes from the draw, so a batch
        of scheduled failures targets distinct victims and their precursor
        signals stay attached to nodes that actually die.  Deprovisioned
        nodes (autoscaler spares) host nothing and cannot be victims; with
        everything provisioned the candidate list — and the draw — is
        unchanged.
        """
        alive = [
            n
            for n in self.nodes
            if n.alive and n.provisioned and n.node_id not in exclude
        ]
        if not alive:
            return None
        weights = np.array([n.profile.failure_weight for n in alive], dtype=float)
        total = weights.sum()
        # Both branches must consume the stream identically: ``choice``
        # with an explicit ``p`` inverts one uniform draw regardless of
        # the weights, whereas ``integers`` uses Lemire rejection — mixing
        # them made flipping a profile's failure_weight between 0 and ε
        # perturb every subsequent draw on the stream.  All-zero weights
        # therefore degrade to a uniform ``p``, not to ``integers``.
        if total <= 0:
            probabilities = np.full(len(alive), 1.0 / len(alive))
        else:
            probabilities = weights / total
        return alive[int(rng.choice(len(alive), p=probabilities))]
