"""Runtime Manager Module: the replica registry and the claim path.

The module "maintains information about the used runtimes and their
corresponding replicated runtimes and enables the Core Module to map the
failed functions to the replicated runtimes in the event of a function
failure" (§IV-C-3).  It remembers *where* replicas live, which the claim
path uses to pick the best (fastest, closest) replica.  The runtimes in use
by function containers are indexed once, by the FaaS controller
(``FaaSController.function_hosting_nodes``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.node import Node
from repro.common.types import ContainerState, RuntimeKind
from repro.core.database import CanaryDatabase
from repro.faas.container import Container, ContainerPurpose


class RuntimeManagerModule:
    """Registry of warm runtime replicas, per runtime kind."""

    def __init__(self, database: Optional[CanaryDatabase] = None) -> None:
        self.database = database
        # kind -> {container_id: (Container, job_id, replica_id)}
        self._replicas: dict[RuntimeKind, dict[str, tuple[Container, str, str]]] = {}
        # Incremental warm-idle tally mirroring the registry scan.  A
        # registered replica is warm-idle from registration until it is
        # claimed, unregistered, or its node dies; every one of those
        # transitions funnels through this module (``note_node_dead``
        # covers the node-death fanout window, during which dead-node
        # replicas are still registered but no longer warm-idle), so the
        # tally always equals the scan — without the O(pool) scan per
        # reconcile that dominated large open-loop traffic runs.
        self._idle_count: dict[RuntimeKind, int] = {}
        self._counted: set[str] = set()
        self._claim_listeners: list[Callable[[RuntimeKind, str], None]] = []
        self._availability_listeners: list[Callable[[RuntimeKind], None]] = []
        self.claims_served = 0
        self.claims_missed = 0

    # ------------------------------------------------------------------
    # Replica registry
    # ------------------------------------------------------------------
    def register_replica(
        self, container: Container, job_id: str, replica_id: str
    ) -> None:
        if container.purpose != ContainerPurpose.REPLICA:
            raise ValueError(
                f"container {container.container_id} is not a replica"
            )
        self._replicas.setdefault(container.kind, {})[
            container.container_id
        ] = (container, job_id, replica_id)
        if container.is_warm_idle:
            self._idle_count[container.kind] = (
                self._idle_count.get(container.kind, 0) + 1
            )
            self._counted.add(container.container_id)
        if self.database is not None:
            self.database.replication_info.upsert(
                {
                    "replica_id": replica_id,
                    "job_id": job_id,
                    "runtime": container.kind.value,
                    "worker_id": container.node.node_id,
                    "container_id": container.container_id,
                    "state": container.state.value,
                    "created_at": container.created_at,
                }
            )
        for listener in self._availability_listeners:
            listener(container.kind)

    def on_replica_available(
        self, listener: Callable[[RuntimeKind], None]
    ) -> None:
        """``listener(kind)`` fires when a new warm replica registers —
        recovery paths waiting for a replica subscribe here."""
        self._availability_listeners.append(listener)

    def _discount(self, container: Container) -> None:
        if container.container_id in self._counted:
            self._counted.discard(container.container_id)
            self._idle_count[container.kind] -= 1

    def note_node_dead(self, node_id: str) -> None:
        """Drop dead-node replicas from the warm-idle tally.

        Called at the *top* of the node-failure fanout (before any
        container-loss listener runs), matching the instant the scan-based
        count stopped seeing them: ``node.alive`` flips before listeners
        fire, but the per-container unregister only lands mid-fanout.
        """
        for entries in self._replicas.values():
            for c, _, _ in entries.values():
                if c.node.node_id == node_id:
                    self._discount(c)

    def unregister_replica(self, container: Container) -> None:
        self._discount(container)
        entry = self._replicas.get(container.kind, {}).pop(
            container.container_id, None
        )
        if entry is not None and self.database is not None:
            _, _, replica_id = entry
            self.database.replication_info.update(
                replica_id, state=container.state.value
            )

    def replica_count(self, kind: RuntimeKind, *, warm_only: bool = True) -> int:
        if not warm_only:
            return len(self._replicas.get(kind, {}))
        return self._idle_count.get(kind, 0)

    def replica_locations(self, kind: RuntimeKind) -> list[Node]:
        return [
            c.node
            for c, _, _ in self._replicas.get(kind, {}).values()
            if not c.terminal
        ]

    def warm_replicas(self, kind: RuntimeKind) -> list[Container]:
        return [
            c
            for c, _, _ in self._replicas.get(kind, {}).values()
            if c.is_warm_idle
        ]

    # ------------------------------------------------------------------
    # Claim path (failure recovery)
    # ------------------------------------------------------------------
    def on_replica_claimed(
        self, listener: Callable[[RuntimeKind, str], None]
    ) -> None:
        """``listener(kind, job_id)`` fires when a replica is consumed, so the
        Replication Module can launch a replacement."""
        self._claim_listeners.append(listener)

    def claim_replica(
        self,
        kind: RuntimeKind,
        function_id: str,
        *,
        failed_node: Optional[Node] = None,
        exclude_failed_node: bool = False,
    ) -> Optional[Container]:
        """Adopt the best warm replica for a failed function.

        Selection prefers (1) nodes other than the one that just failed the
        function, (2) faster nodes, (3) deterministic container order — the
        "best possible replicated runtime … to minimize the recovery time"
        rule of §IV-C-4-c.  With ``exclude_failed_node`` replicas on that
        node are not eligible at all (used when draining a node that is
        predicted to fail: a same-node replica would die with it).
        """
        candidates = self.warm_replicas(kind)
        failed_id = failed_node.node_id if failed_node is not None else None
        if exclude_failed_node and failed_id is not None:
            candidates = [c for c in candidates if c.node.node_id != failed_id]
        if not candidates:
            self.claims_missed += 1
            return None

        def rank(c: Container) -> tuple:
            return (
                c.node.node_id == failed_id,        # avoid the failing node
                -c.node.profile.speed_factor,       # prefer fast nodes
                c.container_id,                     # determinism
            )

        chosen = min(candidates, key=rank)
        entry = self._replicas[kind][chosen.container_id]
        chosen.adopt(function_id)
        self.claims_served += 1
        if self.database is not None:
            self.database.replication_info.update(
                entry[2], state=ContainerState.RUNNING.value
            )
        # The adopted container stops being a replica and becomes the
        # function's host; drop it from the registry and announce the claim.
        self._discount(chosen)
        del self._replicas[kind][chosen.container_id]
        for listener in self._claim_listeners:
            listener(kind, entry[1])
        return chosen
