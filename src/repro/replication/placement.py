"""Replica placement rules (§IV-C-5-b).

"The first replica is placed on any worker that hosts the job function.
Further replicas are placed away from the worker hosting the first replica
to avoid a single point of failure … placement decisions are locality aware
and take into account the location of worker nodes in the data center."

Since the S39 policy layer, the locality/anti-affinity decision itself
lives in :class:`~repro.policies.builtin.LocalityPolicy` (the default,
byte-identical to the rules that used to be inlined here); the placer owns
the candidate filtering and delegates the ranking to whichever policy the
platform selected.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.policies.base import PlacementPolicy
from repro.policies.builtin import LocalityPolicy


class ReplicaPlacer:
    """Chooses nodes for new runtime replicas."""

    def __init__(
        self, cluster: Cluster, policy: Optional[PlacementPolicy] = None
    ) -> None:
        self.cluster = cluster
        self.policy = policy if policy is not None else LocalityPolicy()

    def choose_node(
        self,
        *,
        memory_bytes: float,
        function_nodes: Sequence[Node],
        existing_replica_nodes: Sequence[Node],
    ) -> Optional[Node]:
        """Pick the node for the next replica.

        Default (locality) rules — Rule 1: the *first* replica co-locates
        with a worker hosting one of the job's functions (warm locality:
        adopting it avoids cross-node state movement).  Rule 2: subsequent
        replicas move *away*, maximizing topology distance from existing
        replicas (different rack first, different node second) to avoid a
        single point of failure, with ties toward faster, emptier nodes.
        Non-default policies substitute their own objective.
        """
        candidates = self.cluster.hosting_candidates(memory_bytes)
        if not candidates:
            return None
        return self.policy.select_replica_node(
            candidates,
            function_nodes=function_nodes,
            existing_replica_nodes=existing_replica_nodes,
        )
