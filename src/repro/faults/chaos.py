"""Gray-failure chaos archetypes (stragglers, zombies, partitions, brownouts).

The kill-only :class:`~repro.faults.injector.FailureInjector` models the
paper's fail-stop evaluation.  Real clusters mostly fail *gray*: nodes slow
down without dying, control planes wedge while the data plane looks healthy,
links brown out, and storage tiers refuse writes for a window.  This module
injects those archetypes deterministically — every draw comes from a named
RNG stream (``chaos:stragglers``, ``chaos:zombies``, ...), so enabling chaos
never perturbs the streams existing subsystems consume, and a chaos run is a
pure function of the experiment seed.

Archetypes:

* **Straggler** — a node's effective speed is multiplied by
  ``straggler_slowdown`` for a window.  Work *scheduled* during the window
  runs slow (already-running state timers keep their times), and the node's
  heartbeats stretch by the same factor — which is how the detector notices.
* **Zombie** — the node's control plane wedges: running attempts freeze,
  the invoker accepts cold starts but never readies them, yet the node
  reports alive.  Only heartbeat silence (it stops beating) or the
  per-invocation timeout backstop recovers the work; a hard-kill at
  ``zombie_kill_after_s`` bounds the damage when detection is off.
* **Partition** — a node's NIC links drop to a trickle
  (``PARTITION_CAPACITY_FACTOR``) and its heartbeats are dropped for the
  window; short partitions cause cordon-then-reinstate cycles rather than
  kills.
* **Link brownout** — an aggregation uplink or the core link loses most of
  its capacity for a window (checkpoint/restore traffic slows cluster-wide).
* **WAN flap** — an edge rack's WAN uplink (``edge-wan`` preset) drops to a
  sliver of its capacity for a window; everything crossing the cloud-edge
  boundary (image pulls, checkpoints, replica traffic) stalls behind it.
* **Tier brownout** — a storage tier inflates latency or refuses I/O for a
  window; writes spill to the next healthy tier and restores back off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import Node
    from repro.core.canary import CanaryPlatform
    from repro.sim.engine import EventHandle

#: Fraction of its NIC capacity a partitioned node keeps (a trickle).
PARTITION_CAPACITY_FACTOR = 0.05


@dataclass(frozen=True)
class TierBrownout:
    """One storage-tier degradation window.

    ``mode="slow"`` multiplies the tier's read/write latency by
    ``latency_multiplier``; ``mode="refuse"`` rejects new I/O outright
    (writes spill to the next healthy tier, restores back off).
    """

    tier: str
    start_s: float
    duration_s: float
    mode: str = "slow"
    latency_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.mode not in ("slow", "refuse"):
            raise ValueError("mode must be 'slow' or 'refuse'")
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.latency_multiplier < 1.0:
            raise ValueError("latency_multiplier must be >= 1")


def _validate_window(name: str, window: tuple[float, float]) -> None:
    start, end = window
    if end <= start or start < 0:
        raise ValueError(f"{name} must be a non-empty (start, end) range")


@dataclass(frozen=True)
class ChaosConfig:
    """Counts and windows for each gray-failure archetype (all off by 0)."""

    stragglers: int = 0
    straggler_window: tuple[float, float] = (5.0, 25.0)
    straggler_duration_s: float = 10.0
    straggler_slowdown: float = 0.25

    zombies: int = 0
    zombie_window: tuple[float, float] = (5.0, 25.0)
    zombie_kill_after_s: float = 60.0

    partitions: int = 0
    partition_window: tuple[float, float] = (5.0, 25.0)
    partition_duration_s: float = 2.0

    link_brownouts: int = 0
    link_brownout_window: tuple[float, float] = (5.0, 25.0)
    link_brownout_duration_s: float = 5.0
    link_brownout_factor: float = 0.1

    #: WAN flaps: an edge rack's WAN uplink (edge-wan preset) loses most
    #: of its capacity for a window — the cloud-edge failure-injection
    #: archetype.  No-ops (counted as skips) when the network model has
    #: no WAN links.
    wan_flaps: int = 0
    wan_flap_window: tuple[float, float] = (5.0, 25.0)
    wan_flap_duration_s: float = 4.0
    wan_flap_factor: float = 0.05

    tier_brownouts: tuple[TierBrownout, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for count_name in (
            "stragglers",
            "zombies",
            "partitions",
            "link_brownouts",
            "wan_flaps",
        ):
            if getattr(self, count_name) < 0:
                raise ValueError(f"{count_name} must be non-negative")
        if self.stragglers:
            _validate_window("straggler_window", self.straggler_window)
        if self.zombies:
            _validate_window("zombie_window", self.zombie_window)
        if self.partitions:
            _validate_window("partition_window", self.partition_window)
        if self.link_brownouts:
            _validate_window(
                "link_brownout_window", self.link_brownout_window
            )
        if not 0.0 < self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be in (0, 1)")
        if self.straggler_duration_s <= 0:
            raise ValueError("straggler_duration_s must be positive")
        if self.zombie_kill_after_s <= 0:
            raise ValueError("zombie_kill_after_s must be positive")
        if self.partition_duration_s <= 0:
            raise ValueError("partition_duration_s must be positive")
        if self.link_brownout_duration_s <= 0:
            raise ValueError("link_brownout_duration_s must be positive")
        if not 0.0 < self.link_brownout_factor <= 1.0:
            raise ValueError("link_brownout_factor must be in (0, 1]")
        if self.wan_flaps:
            _validate_window("wan_flap_window", self.wan_flap_window)
        if self.wan_flap_duration_s <= 0:
            raise ValueError("wan_flap_duration_s must be positive")
        if not 0.0 < self.wan_flap_factor <= 1.0:
            raise ValueError("wan_flap_factor must be in (0, 1]")

    @property
    def enabled(self) -> bool:
        return bool(
            self.stragglers
            or self.zombies
            or self.partitions
            or self.link_brownouts
            or self.wan_flaps
            or self.tier_brownouts
        )


def default_chaos_preset() -> ChaosConfig:
    """The ``run --chaos`` CLI preset: a bit of every archetype."""
    return ChaosConfig(
        stragglers=2,
        straggler_window=(5.0, 20.0),
        straggler_duration_s=8.0,
        straggler_slowdown=0.25,
        zombies=1,
        zombie_window=(6.0, 18.0),
        zombie_kill_after_s=45.0,
        partitions=1,
        partition_window=(8.0, 20.0),
        partition_duration_s=2.0,
        tier_brownouts=(
            TierBrownout(
                tier="kv", start_s=10.0, duration_s=8.0, mode="refuse"
            ),
        ),
    )


class ChaosInjector:
    """Schedules the configured gray-failure archetypes on the sim clock."""

    def __init__(self, platform: "CanaryPlatform", config: ChaosConfig) -> None:
        self.platform = platform
        self.sim = platform.sim
        self.cluster = platform.cluster
        self.config = config
        self.tiers = platform.tiers
        self.network = platform.network
        self.tracer = platform.tracer
        for spec in config.tier_brownouts:
            self.tiers.get(spec.tier)  # validate names eagerly
        #: node_id -> onset time of a gray fault (zombie), consumed by the
        #: detection module for latency accounting.
        self.gray_onset: dict[str, float] = {}
        self._partitioned: dict[str, float] = {}
        self._zombie_kill_handles: dict[str, "EventHandle"] = {}
        self._scheduled = False
        self.cluster.on_node_failure(self._on_node_death)
        # Statistics.
        self.stragglers_applied = 0
        self.straggler_skips = 0
        self.zombies_started = 0
        self.zombie_hard_kills = 0
        self.wan_flaps_applied = 0
        self.wan_flap_skips = 0
        self.tier_brownouts_applied = 0
        #: Seconds of scheduled degradation windows (zombie time is added
        #: separately in :meth:`degraded_seconds`, measured onset-to-death).
        self.degraded_window_s = 0.0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self) -> None:
        if self._scheduled:
            return
        self._scheduled = True
        self._schedule_stragglers()
        self._schedule_zombies()
        self._schedule_partitions()
        self._schedule_link_brownouts()
        self._schedule_wan_flaps()
        self._schedule_tier_brownouts()

    def _draw_node_events(
        self, stream: str, count: int, window: tuple[float, float]
    ) -> list[tuple[float, "Node"]]:
        """Draw (time, node) pairs for *count* events inside *window*."""
        rng = self.sim.rng.stream(stream)
        start, end = window
        times = sorted(float(rng.uniform(start, end)) for _ in range(count))
        # Deprovisioned autoscaler spares host nothing and stay out of the
        # draw; with every node provisioned the list (and the RNG draws)
        # is identical to the historical behaviour.
        nodes = [n for n in self.cluster.nodes if n.provisioned]
        return [
            (at, nodes[int(rng.integers(len(nodes)))]) for at in times
        ]

    def _schedule_stragglers(self) -> None:
        if self.config.stragglers <= 0:
            return
        for at, node in self._draw_node_events(
            "chaos:stragglers",
            self.config.stragglers,
            self.config.straggler_window,
        ):
            self.sim.call_at(
                max(at, self.sim.now),
                lambda node=node: self._start_straggle(node),
                label="chaos-straggler",
            )

    def _schedule_zombies(self) -> None:
        if self.config.zombies <= 0:
            return
        for at, node in self._draw_node_events(
            "chaos:zombies", self.config.zombies, self.config.zombie_window
        ):
            self.sim.call_at(
                max(at, self.sim.now),
                lambda node=node: self._start_zombie(node),
                label="chaos-zombie",
            )

    def _schedule_partitions(self) -> None:
        if self.config.partitions <= 0:
            return
        for at, node in self._draw_node_events(
            "chaos:partitions",
            self.config.partitions,
            self.config.partition_window,
        ):
            self.sim.call_at(
                max(at, self.sim.now),
                lambda node=node: self._start_partition(node),
                label="chaos-partition",
            )

    def _schedule_link_brownouts(self) -> None:
        if self.config.link_brownouts <= 0 or self.network is None:
            return
        # Aggregation uplinks and the core carry the cross-rack checkpoint
        # and restore traffic — browning one out is felt cluster-wide.
        names = sorted(
            name for name in self.network.links if name.startswith("up-")
        )
        names.append("core")
        rng = self.sim.rng.stream("chaos:links")
        start, end = self.config.link_brownout_window
        times = sorted(
            float(rng.uniform(start, end))
            for _ in range(self.config.link_brownouts)
        )
        for at in times:
            name = names[int(rng.integers(len(names)))]
            self.sim.call_at(
                max(at, self.sim.now),
                lambda name=name: self._start_link_brownout(name),
                label="chaos-link",
            )

    def _schedule_wan_flaps(self) -> None:
        if self.config.wan_flaps <= 0:
            return
        wan_links = getattr(self.network, "wan_links", None)
        if not wan_links:
            # No network model, or a single-site fabric with no WAN
            # uplinks: nothing to flap.
            self.wan_flap_skips += self.config.wan_flaps
            return
        names = sorted(link.name for link in wan_links)
        rng = self.sim.rng.stream("chaos:wan")
        start, end = self.config.wan_flap_window
        times = sorted(
            float(rng.uniform(start, end))
            for _ in range(self.config.wan_flaps)
        )
        for at in times:
            name = names[int(rng.integers(len(names)))]
            self.sim.call_at(
                max(at, self.sim.now),
                lambda name=name: self._start_wan_flap(name),
                label="chaos-wan",
            )

    def _schedule_tier_brownouts(self) -> None:
        for spec in self.config.tier_brownouts:
            self.sim.call_at(
                max(spec.start_s, self.sim.now),
                lambda spec=spec: self._start_tier_brownout(spec),
                label="chaos-tier",
            )

    # ------------------------------------------------------------------
    # Stragglers
    # ------------------------------------------------------------------
    def _start_straggle(self, node: "Node") -> None:
        if not node.alive or node.zombie:
            self.straggler_skips += 1
            return
        cfg = self.config
        node.chaos_speed_factor *= cfg.straggler_slowdown
        self.stragglers_applied += 1
        self.degraded_window_s += cfg.straggler_duration_s
        self.tracer.instant(
            "chaos",
            f"straggler:{node.node_id}",
            duration=cfg.straggler_duration_s,
            node=node.node_id,
            slowdown=cfg.straggler_slowdown,
        )
        self.sim.call_in(
            cfg.straggler_duration_s,
            lambda: self._end_straggle(node),
            label="chaos-straggler-end",
        )

    def _end_straggle(self, node: "Node") -> None:
        node.chaos_speed_factor /= self.config.straggler_slowdown
        # Overlapping windows compose multiplicatively; snap the residue so
        # a fully-recovered node scales durations exactly as before.
        if abs(node.chaos_speed_factor - 1.0) < 1e-12:
            node.chaos_speed_factor = 1.0

    # ------------------------------------------------------------------
    # Zombies
    # ------------------------------------------------------------------
    def _start_zombie(self, node: "Node") -> None:
        if not node.alive or node.zombie:
            return
        node.zombie = True
        self.zombies_started += 1
        self.gray_onset[node.node_id] = self.sim.now
        self.tracer.instant("chaos", f"zombie:{node.node_id}", node=node.node_id)
        # Freeze in-flight work: attempts stop transitioning states but the
        # containers stay registered — only the invocation timeout or the
        # node's eventual death recovers them.
        owners = self.platform.container_owners
        for container_id in list(node.containers):
            owner = owners.get(container_id)
            if owner is not None:
                owner.freeze_container(container_id)
        self.platform.controller.invokers[node.node_id].wedge()
        self._zombie_kill_handles[node.node_id] = self.sim.call_in(
            self.config.zombie_kill_after_s,
            lambda: self._zombie_hard_kill(node),
            label="chaos-zombie-kill",
        )

    def _zombie_hard_kill(self, node: "Node") -> None:
        self._zombie_kill_handles.pop(node.node_id, None)
        if node.alive:
            self.zombie_hard_kills += 1
            self.cluster.fail_node(node.node_id, self.sim.now)

    def _on_node_death(self, node: "Node", lost: Any) -> None:
        # Detection fenced the zombie first (or the injector killed it):
        # the hard-kill backstop is no longer needed.
        handle = self._zombie_kill_handles.pop(node.node_id, None)
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def _start_partition(self, node: "Node") -> None:
        if not node.alive or node.node_id in self._partitioned:
            return
        cfg = self.config
        node_id = node.node_id
        self._partitioned[node_id] = self.sim.now + cfg.partition_duration_s
        self.degraded_window_s += cfg.partition_duration_s
        self.tracer.instant(
            "chaos",
            f"partition:{node_id}",
            duration=cfg.partition_duration_s,
            node=node_id,
        )
        restore: dict[str, float] = {}
        if self.network is not None:
            for name in (f"nic-tx:{node_id}", f"nic-rx:{node_id}"):
                link = self.network.links.get(name)
                if link is not None:
                    restore[name] = self.network.set_link_capacity(
                        name, link.bandwidth * PARTITION_CAPACITY_FACTOR
                    )
        self.sim.call_in(
            cfg.partition_duration_s,
            lambda: self._end_partition(node_id, restore),
            label="chaos-partition-end",
        )

    def _end_partition(
        self, node_id: str, restore: dict[str, float]
    ) -> None:
        self._partitioned.pop(node_id, None)
        for name, bandwidth in restore.items():
            self.network.set_link_capacity(name, bandwidth)

    def heartbeat_blocked(self, node_id: str) -> bool:
        """True while *node_id*'s heartbeats are partitioned away."""
        end = self._partitioned.get(node_id)
        return end is not None and self.sim.now < end

    # ------------------------------------------------------------------
    # Link / tier brownouts
    # ------------------------------------------------------------------
    def _start_link_brownout(self, name: str) -> None:
        cfg = self.config
        link = self.network.links[name]
        previous = self.network.set_link_capacity(
            name, link.bandwidth * cfg.link_brownout_factor
        )
        self.degraded_window_s += cfg.link_brownout_duration_s
        self.tracer.instant(
            "chaos",
            f"link-brownout:{name}",
            duration=cfg.link_brownout_duration_s,
            link=name,
        )
        self.sim.call_in(
            cfg.link_brownout_duration_s,
            lambda: self.network.set_link_capacity(name, previous),
            label="chaos-link-end",
        )

    def _start_wan_flap(self, name: str) -> None:
        cfg = self.config
        link = self.network.links[name]
        previous = self.network.set_link_capacity(
            name, link.bandwidth * cfg.wan_flap_factor
        )
        self.wan_flaps_applied += 1
        self.degraded_window_s += cfg.wan_flap_duration_s
        self.tracer.instant(
            "chaos",
            f"wan-flap:{name}",
            duration=cfg.wan_flap_duration_s,
            link=name,
        )
        self.sim.call_in(
            cfg.wan_flap_duration_s,
            lambda: self.network.set_link_capacity(name, previous),
            label="chaos-wan-end",
        )

    def _start_tier_brownout(self, spec: TierBrownout) -> None:
        self.tiers.set_brownout(
            spec.tier,
            refuse=(spec.mode == "refuse"),
            latency_multiplier=spec.latency_multiplier,
        )
        self.tier_brownouts_applied += 1
        self.degraded_window_s += spec.duration_s
        self.tracer.instant(
            "chaos",
            f"tier-brownout:{spec.tier}",
            duration=spec.duration_s,
            tier=spec.tier,
            mode=spec.mode,
        )
        self.sim.call_in(
            spec.duration_s,
            lambda: self.tiers.clear_brownout(spec.tier),
            label="chaos-tier-end",
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def degraded_seconds(self) -> float:
        """Total seconds of injected degradation (windows + zombie time)."""
        total = self.degraded_window_s
        now = self.sim.now
        for node_id, onset in self.gray_onset.items():
            node = self.cluster.node(node_id)
            end = node.failed_at if node.failed_at is not None else now
            total += max(0.0, end - onset)
        return total
