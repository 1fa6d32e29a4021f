"""The built-in placement policies.

``locality`` is the default and reproduces the pre-policy-layer behaviour
byte-for-byte: the controller's ``(slots_free, speed, -index)`` container
ranking and the §IV-C-5-b replica rules that used to live inside
``ReplicaPlacer.choose_node``.  The others trade that locality objective
for a different one — spread, load, link pressure, dollars, or trust —
while keeping the same deterministic tie-break so every policy is a pure
function of the call sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.cluster.topology import Topology
from repro.policies.base import PlacementPolicy, static_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node


class LocalityPolicy(PlacementPolicy):
    """The paper's rules (§IV-C-5-b); default, golden-pinned.

    Containers go to the emptiest node (fastest on ties); the first
    replica co-locates with a worker hosting one of the job's functions;
    later replicas maximize topology distance from the existing replica
    set.  Byte-identical to the pre-refactor controller + ReplicaPlacer.
    """

    name = "locality"

    def select_node(self, candidates: Sequence["Node"]) -> Optional["Node"]:
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda n: (n.slots_free, n.profile.speed_factor, -n.index),
        )

    def select_replica_node(
        self,
        candidates: Sequence["Node"],
        *,
        function_nodes: Sequence["Node"],
        existing_replica_nodes: Sequence["Node"],
    ) -> Optional["Node"]:
        if not candidates:
            return None
        candidates = self.apply_hints(candidates)

        if not existing_replica_nodes:
            hosting_ids = {n.node_id for n in function_nodes if n.alive}
            co_located = [c for c in candidates if c.node_id in hosting_ids]
            pool = co_located or list(candidates)
            return max(pool, key=static_key)

        # The topology's distance is coarse (same node < same rack <
        # cross rack), so the minimum over the replica set collapses to
        # two membership tests; O(candidates + replicas).
        replica_ids = {other.node_id for other in existing_replica_nodes}
        replica_racks = {other.rack for other in existing_replica_nodes}

        def min_distance(candidate: "Node") -> int:
            if candidate.node_id in replica_ids:
                return Topology.SAME_NODE
            if candidate.rack in replica_racks:
                return Topology.SAME_RACK
            return Topology.CROSS_RACK

        return max(
            candidates,
            key=lambda n: (
                min_distance(n),            # farthest from existing replicas
                n.profile.speed_factor,
                n.slots_free,
                -n.index,
            ),
        )


class RoundRobinPolicy(PlacementPolicy):
    """Cycle through nodes by index, skipping ones that can't host.

    The cursor is policy-local state, advanced only by selections, so the
    sequence is a deterministic function of the call order — no clock or
    RNG involved.
    """

    name = "round-robin"

    def __init__(self, **handles) -> None:
        super().__init__(**handles)
        self._cursor = 0

    def select_node(self, candidates: Sequence["Node"]) -> Optional["Node"]:
        if not candidates:
            return None
        ordered = sorted(candidates, key=lambda n: n.index)
        pick = next(
            (n for n in ordered if n.index >= self._cursor), ordered[0]
        )
        self._cursor = pick.index + 1
        return pick


class LeastLoadedPolicy(PlacementPolicy):
    """Minimize live load: resident containers plus cold-start backlog.

    The backlog is the node's in-flight cold-start counter, which the
    invoker keeps equal to its pending launches.  A wedged zombie invoker
    never completes its launches, so its backlog only grows and this
    signal steers new work away from gray nodes without any oracle.
    """

    name = "least-loaded"

    @staticmethod
    def _load(node: "Node") -> int:
        return len(node.containers) + node.cold_starts_in_flight

    def select_node(self, candidates: Sequence["Node"]) -> Optional["Node"]:
        if not candidates:
            return None
        return max(
            candidates, key=lambda n: (-self._load(n),) + static_key(n)
        )


class ContentionAwarePolicy(PlacementPolicy):
    """Avoid nodes behind busy links: rank by live S33 fabric pressure.

    Pressure is the number of active flows crossing the node's NICs and
    its rack uplinks (``FlowNetwork.node_pressure``) — cold starts placed
    behind a saturated uplink pull their images through the very links
    already carrying checkpoint and replica traffic.  Without a fabric
    handle every node scores zero and the ranking degrades to the static
    tie-break.
    """

    name = "contention"

    def _pressure(self, node: "Node") -> int:
        if self.network is None:
            return 0
        return self.network.node_pressure(node.node_id)

    def select_node(self, candidates: Sequence["Node"]) -> Optional["Node"]:
        if not candidates:
            return None
        return max(
            candidates, key=lambda n: (-self._pressure(n),) + static_key(n)
        )


class CostMinimizingPolicy(PlacementPolicy):
    """Minimize projected dollars per unit of work.

    Billing is GB-seconds (§V pricing), so for a fixed function the bill
    scales with wall-clock duration: the cheapest node is the one with the
    highest *effective* speed (hardware speed × live chaos degradation).
    Among equal speeds the policy bin-packs — fuller nodes first — so idle
    capacity stays consolidated and retirable rather than fragmenting the
    fleet.
    """

    name = "cost"

    @staticmethod
    def _effective_speed(node: "Node") -> float:
        return node.profile.speed_factor * node.chaos_speed_factor

    def select_node(self, candidates: Sequence["Node"]) -> Optional["Node"]:
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda n: (
                self._effective_speed(n),
                -n.slots_free,      # bin-pack: prefer the fuller node
                -n.index,
            ),
        )


class SuspicionAwarePolicy(PlacementPolicy):
    """Distrust flappy nodes: rank by the S36 detector's suspicion history.

    Currently-suspected nodes are cordoned (excluded upstream), so the
    signal this policy adds is *history*: a node the phi detector has
    suspected before — even falsely — is a gray-failure risk, and new work
    prefers nodes with a clean record.  Without a detector handle the
    policy still avoids cordoned nodes outright (belt and braces for
    hand-built candidate lists) and otherwise ranks statically.
    """

    name = "suspicion"

    def _score(self, node: "Node") -> float:
        score = 1000.0 if node.cordoned else 0.0
        if self.detection is not None:
            score += self.detection.suspicion_score(node.node_id)
        return score

    def select_node(self, candidates: Sequence["Node"]) -> Optional["Node"]:
        if not candidates:
            return None
        return max(
            candidates, key=lambda n: (-self._score(n),) + static_key(n)
        )
