"""The pluggable placement-policy contract.

Two decision points share one policy object per platform:

* **Container placement** — the FaaS controller filters the hosting
  candidates (preferred node, anti-affinity, capacity) and hands the
  surviving list to :meth:`PlacementPolicy.select_node`.
* **Replica placement** — the Replication Module's
  :class:`~repro.replication.placement.ReplicaPlacer` delegates the
  §IV-C-5-b locality/anti-affinity decision to
  :meth:`PlacementPolicy.select_replica_node`, passing the nodes that host
  the job's functions and the existing replica set.

Policies are *pure rankers*: they draw no randomness and mutate no platform
state (round-robin keeps a private cursor, which is a deterministic
function of the call sequence).  Enabling a non-default policy therefore
keeps a run a pure function of the seed, and the default
:class:`~repro.policies.builtin.LocalityPolicy` reproduces the pre-policy
placement byte-identically.

Richer policies read live platform signals from the nodes themselves
(containers, cold-start backlog, chaos speed) and from the two handles
passed at construction: the S33 flow fabric (link utilization) and the S36
suspicion detector (phi history).  Both handles are optional — every
policy must degrade to a deterministic static ranking when a signal is
absent, so the same policy name works in scenarios with and without those
subsystems.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.detection.monitor import DetectionModule
    from repro.network.fabric import FlowNetwork


class PlacementPolicy:
    """Base class: deterministic node selection for containers + replicas.

    Subclasses override :meth:`select_node` and (optionally)
    :meth:`select_replica_node`; the default replica rule filters to the
    policy's own container ranking, so simple policies only write one
    method.
    """

    #: Registry key; subclasses set their own.
    name = "base"

    def __init__(
        self,
        *,
        network: Optional["FlowNetwork"] = None,
        detection: Optional["DetectionModule"] = None,
    ) -> None:
        #: S33 FlowNetwork; live link utilization (contention policy).
        self.network = network
        #: S36 DetectionModule; suspicion history (suspicion policy).
        self.detection = detection
        #: S40 adaptive avoidance hints: node_ids new containers should
        #: steer away from while alternatives exist.  Empty (default)
        #: keeps every decision byte-identical to the un-hinted policy.
        self._avoid_hints: frozenset[str] = frozenset()

    # ------------------------------------------------------------------
    # Adaptive avoidance hints (S40)
    # ------------------------------------------------------------------
    def set_hints(self, node_ids: frozenset[str]) -> None:
        """Replace the avoidance-hint set (the adaptive controller's knob)."""
        self._avoid_hints = frozenset(node_ids)

    def apply_hints(self, candidates: Sequence["Node"]) -> Sequence["Node"]:
        """Filter hinted nodes out — soft: never empties the candidate list.

        Hints steer, they don't cordon; when every candidate is hinted the
        original list passes through so placement still succeeds.
        """
        if not self._avoid_hints:
            return candidates
        kept = [n for n in candidates if n.node_id not in self._avoid_hints]
        return kept or candidates

    # ------------------------------------------------------------------
    # Decision points
    # ------------------------------------------------------------------
    def select_node(self, candidates: Sequence["Node"]) -> Optional["Node"]:
        """Pick the node for a container cold start.

        ``candidates`` is the controller's already-filtered hosting list
        (alive, uncordoned, capacity, anti-affinity applied); the policy
        only ranks.  Must return a member of ``candidates`` or ``None``.
        """
        raise NotImplementedError

    def select_replica_node(
        self,
        candidates: Sequence["Node"],
        *,
        function_nodes: Sequence["Node"],
        existing_replica_nodes: Sequence["Node"],
    ) -> Optional["Node"]:
        """Pick the node for the next warm replica (§IV-C-5-b inputs).

        The default keeps the anti-affinity half of the locality rule —
        prefer nodes not already holding a replica — then applies the
        policy's own container ranking, so load/cost/contention policies
        stay spread-aware without re-implementing the topology walk.
        """
        if not candidates:
            return None
        taken = {node.node_id for node in existing_replica_nodes}
        fresh = [node for node in candidates if node.node_id not in taken]
        return self.select_node(self.apply_hints(fresh or list(candidates)))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def static_key(node: "Node") -> tuple:
    """Shared deterministic tie-break: faster, emptier, lower index.

    Every built-in policy ends its ranking with this tuple so equal-score
    candidates resolve identically across policies (and across runs).
    """
    return (node.profile.speed_factor, node.slots_free, -node.index)
