"""A single cluster node: capacity accounting and liveness."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cluster.heterogeneity import NodeProfile
from repro.common.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.cluster import Cluster
    from repro.faas.container import Container


class Node:
    """One worker node.

    Tracks resident containers, free memory/slots, and the count of in-flight
    cold starts (used by the contention model: many simultaneous container
    launches on one node slow each other down, which is what makes the
    retry storm after a node failure expensive — §V-D-6).
    """

    def __init__(self, node_id: str, index: int, profile: NodeProfile, rack: str) -> None:
        self.node_id = node_id
        self.index = index
        self.profile = profile
        self.rack = rack
        self.alive = True
        #: deprovisioned nodes exist in the cluster (fixed topology for
        #: the fabric and detection) but host nothing; the autoscaler
        #: flips this as capacity scales out and in
        self.provisioned = True
        #: cordoned nodes accept no new containers (proactive mitigation
        #: drains suspect hardware before a predicted failure; the
        #: heartbeat detector also cordons suspected nodes)
        self.cordoned = False
        #: gray-failure state (chaos layer): a zombie node accepts
        #: placements but never completes them; ``chaos_speed_factor``
        #: multiplies the effective speed: the product of the slowdowns of
        #: its active straggler windows, exactly 1.0 outside them.
        self.zombie = False
        self.chaos_speed_factor = 1.0
        self.containers: dict[str, "Container"] = {}
        self.memory_used = 0.0
        self.cold_starts_in_flight = 0
        self.failed_at: Optional[float] = None
        #: owning cluster, whose ``free_slot_bound`` attach/detach/fail
        #: keep current; None for a standalone node
        self.cluster: Optional["Cluster"] = None

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def memory_free(self) -> float:
        return self.profile.memory_bytes - self.memory_used

    @property
    def slots_free(self) -> int:
        return self.profile.container_slots - len(self.containers)

    def can_host(self, memory_bytes: float) -> bool:
        """True when the node is alive, uncordoned, with capacity to spare."""
        return (
            self.alive
            and self.provisioned
            and not self.cordoned
            and self.slots_free > 0
            and self.memory_free >= memory_bytes
        )

    def attach(self, container: "Container") -> None:
        """Reserve capacity for *container*.  Raises if the node cannot host it."""
        if not self.can_host(container.memory_bytes):
            raise PlacementError(
                f"node {self.node_id} cannot host container "
                f"{container.container_id} (alive={self.alive}, "
                f"slots_free={self.slots_free}, "
                f"memory_free={self.memory_free:.0f}B)"
            )
        self.containers[container.container_id] = container
        self.memory_used += container.memory_bytes
        if self.cluster is not None:
            self.cluster.free_slot_bound -= 1

    def detach(self, container: "Container") -> None:
        """Release the capacity held by *container* (idempotent)."""
        if self.containers.pop(container.container_id, None) is not None:
            self.memory_used -= container.memory_bytes
            if self.memory_used < 1e-9:
                self.memory_used = 0.0
            if self.cluster is not None:
                self.cluster.free_slot_bound += 1

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def fail(self, at_time: float) -> list["Container"]:
        """Mark the node dead; return the containers that were lost."""
        if self.alive and self.cluster is not None:
            self.cluster.free_slot_bound -= self.slots_free
        self.alive = False
        self.failed_at = at_time
        lost = list(self.containers.values())
        self.containers.clear()
        self.memory_used = 0.0
        self.cold_starts_in_flight = 0
        return lost

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    @property
    def speed(self) -> float:
        """Effective speed: what :meth:`scale_duration` divides by."""
        if self.chaos_speed_factor != 1.0:
            return self.profile.speed_factor * self.chaos_speed_factor
        return self.profile.speed_factor

    def scale_duration(self, seconds: float) -> float:
        """Scale a baseline duration by this node's effective speed."""
        return seconds / self.speed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node({self.node_id}, {self.profile.name}, rack={self.rack}, "
            f"alive={self.alive}, containers={len(self.containers)})"
        )
