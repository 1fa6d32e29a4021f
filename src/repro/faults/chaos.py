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

Every archetype but the zombie opens timed windows through one start/end
path and one table.  A window degrades targets: node speed (straggler),
link capacity (partitioned NICs, link brownouts, WAN flaps), tier latency
and refusal (tier brownouts) and a node's heartbeats (partition).  Windows
on one target may overlap: it runs at its configured value times the
factors of its active windows, multiplied in start order, and gets exactly
its configured value back when the last one ends.  A tier refuses while
any refuse window is active, and a node's beats are dropped while any of
its partitions is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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

    ``mode="slow"`` multiplies by ``latency_multiplier`` the tier's whole
    read/write time without a fabric, and its fixed latency on one (flows
    stream at full bandwidth); ``mode="refuse"`` also rejects new I/O
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


#: The drawn archetypes: each has a ``<kind>s`` count and a ``<kind>_window``.
_DRAWN = ("straggler", "zombie", "partition", "link_brownout", "wan_flap")


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
    #: archetype.  No-ops on a fabric with no WAN links; without a
    #: fabric ``ScenarioConfig`` rejects them, as it does link brownouts.
    wan_flaps: int = 0
    wan_flap_window: tuple[float, float] = (5.0, 25.0)
    wan_flap_duration_s: float = 4.0
    wan_flap_factor: float = 0.05

    tier_brownouts: tuple[TierBrownout, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for kind in _DRAWN:
            count = getattr(self, f"{kind}s")
            if count < 0:
                raise ValueError(f"{kind}s must be non-negative")
            start, end = getattr(self, f"{kind}_window")
            if count and (end <= start or start < 0):
                raise ValueError(
                    f"{kind}_window must be a non-empty (start, end) range"
                )
        for name in (
            "straggler_duration_s",
            "zombie_kill_after_s",
            "partition_duration_s",
            "link_brownout_duration_s",
            "wan_flap_duration_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be in (0, 1)")
        for name in ("link_brownout_factor", "wan_flap_factor"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")

    @property
    def enabled(self) -> bool:
        return bool(self.tier_brownouts) or any(
            getattr(self, f"{kind}s") for kind in _DRAWN
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
        #: (kind, name) -> (configured value, {window: factor} of its
        #: active windows in start order); a target leaves once no window
        #: is active.  Kinds: ``speed`` (node), ``link``, ``tier`` (latency
        #: multiplier), ``refuse`` (tier) and ``heartbeat`` (node).
        self._windows: dict[
            tuple[str, str], tuple[float, dict[object, float]]
        ] = {}
        self._zombie_kill_handles: dict[str, "EventHandle"] = {}
        self._scheduled = False
        self.cluster.on_node_failure(self._on_node_death)
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
        cfg = self.config
        # Deprovisioned autoscaler spares host nothing and stay out of the
        # draw; with every node provisioned the list (and the RNG draws)
        # is identical to the historical behaviour.
        nodes = [n for n in self.cluster.nodes if n.provisioned]
        uplinks: list[str] = []
        wan: list[str] = []
        if self.network is not None:
            # Aggregation uplinks and the core carry the cross-rack
            # checkpoint and restore traffic: browning one out is felt
            # cluster-wide.  Only the edge-wan preset has WAN uplinks.
            uplinks = sorted(
                name for name in self.network.links if name.startswith("up-")
            )
            uplinks.append("core")
            wan = sorted(link.name for link in self.network.wan_links)
        link_window = partial(
            self._link_window, "link-brownout", cfg.link_brownout_factor,
            cfg.link_brownout_duration_s, "chaos-link-end",
        )
        wan_window = partial(
            self._link_window, "wan-flap", cfg.wan_flap_factor,
            cfg.wan_flap_duration_s, "chaos-wan-end",
        )
        for stream, count, window, targets, start, label in (
            ("chaos:stragglers", cfg.stragglers, cfg.straggler_window,
             nodes, self._start_straggle, "chaos-straggler"),
            ("chaos:zombies", cfg.zombies, cfg.zombie_window,
             nodes, self._start_zombie, "chaos-zombie"),
            ("chaos:partitions", cfg.partitions, cfg.partition_window,
             nodes, self._start_partition, "chaos-partition"),
            ("chaos:links", cfg.link_brownouts, cfg.link_brownout_window,
             uplinks, link_window, "chaos-link"),
            ("chaos:wan", cfg.wan_flaps, cfg.wan_flap_window,
             wan, wan_window, "chaos-wan"),
        ):
            if count <= 0 or not targets:
                continue
            # Every time is drawn before any target; the faults a seed
            # gives depend on this order.
            rng = self.sim.rng.stream(stream)
            times = sorted(float(rng.uniform(*window)) for _ in range(count))
            for at in times:
                target = targets[int(rng.integers(len(targets)))]
                self.sim.call_at(
                    max(at, self.sim.now),
                    lambda start=start, target=target: start(target),
                    label=label,
                )
        for spec in cfg.tier_brownouts:
            self.sim.call_at(
                max(spec.start_s, self.sim.now),
                lambda spec=spec: self._start_tier_brownout(spec),
                label="chaos-tier",
            )

    def _unfold_beats(self, node: "Node") -> None:
        """Put *node*'s folded heartbeats back on events before its beats
        go silent (zombie) or are dropped (partition)."""
        detection = self.platform.detection
        if detection is not None:
            detection.unfold(node)

    # ------------------------------------------------------------------
    # Zombies
    # ------------------------------------------------------------------
    def _start_zombie(self, node: "Node") -> None:
        if not node.alive or node.zombie:
            return
        self._unfold_beats(node)
        node.zombie = True
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
            self.cluster.fail_node(node.node_id, self.sim.now)

    def _on_node_death(self, node: "Node", lost: Any) -> None:
        # Detection fenced the zombie first (or the injector killed it):
        # the hard-kill backstop is no longer needed.
        handle = self._zombie_kill_handles.pop(node.node_id, None)
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------
    # The window table
    # ------------------------------------------------------------------
    def _window(self, targets: tuple, duration: float, end_label: str) -> None:
        """Open one window over *targets* (``(kind, name, factor)``) and
        close it *duration* seconds later."""
        window = object()
        self._toggle(window, targets, True)
        self.degraded_window_s += duration
        self.sim.call_in(
            duration, lambda: self._toggle(window, targets, False),
            label=end_label,
        )

    def _toggle(self, window: object, targets: tuple, opening: bool) -> None:
        """Add *window* to (or drop it from) each target's active windows,
        then set every target to its configured value times the factors
        of its active windows, multiplied in start order."""
        values = []
        for kind, name, factor in targets:
            key = (kind, name)
            if opening:
                if key not in self._windows:
                    self._windows[key] = (self._configured(kind, name), {})
                value, active = self._windows[key]
                active[window] = factor
            else:
                value, active = self._windows[key]
                del active[window]
                if not active:
                    # The last window ended: exactly the configured value.
                    del self._windows[key]
            for active_factor in active.values():
                value *= active_factor
            values.append(value)
        for (kind, name, _), value in zip(targets, values):
            self._apply(kind, name, value)

    def _configured(self, kind: str, name: str) -> float:
        """A target's value while no window is active (read at its first)."""
        if kind == "link":
            return self.network.links[name].bandwidth
        if kind == "speed":
            return self.cluster.node(name).chaos_speed_factor
        return 1.0

    def _apply(self, kind: str, name: str, value: float) -> None:
        """Set a target, first unfolding what a fold plan read of it (a
        blocked node never folds); ``heartbeat`` and ``refuse`` are read
        from the table itself."""
        if kind == "speed":
            node = self.cluster.node(name)
            self.platform.unfold(node=node)
            node.chaos_speed_factor = value
        elif kind == "link":
            self.network.set_link_capacity(name, value)
        elif kind == "tier":
            self.platform.unfold()
            self.tiers.set_brownout(
                name,
                refuse=("refuse", name) in self._windows,
                latency_multiplier=value,
            )
        elif kind == "heartbeat":
            self._unfold_beats(self.cluster.node(name))

    def heartbeat_blocked(self, node_id: str) -> bool:
        """True while *node_id* has an active partition window."""
        return ("heartbeat", node_id) in self._windows

    # ------------------------------------------------------------------
    # Windows: stragglers, partitions, link brownouts, WAN flaps, tiers
    # ------------------------------------------------------------------
    def _start_straggle(self, node: "Node") -> None:
        if not node.alive or node.zombie:
            return
        cfg = self.config
        self._window(
            (("speed", node.node_id, cfg.straggler_slowdown),),
            cfg.straggler_duration_s, "chaos-straggler-end",
        )
        self.tracer.instant(
            "chaos",
            f"straggler:{node.node_id}",
            duration=cfg.straggler_duration_s,
            node=node.node_id,
            slowdown=cfg.straggler_slowdown,
        )

    def _start_partition(self, node: "Node") -> None:
        if not node.alive:
            return
        cfg = self.config
        node_id = node.node_id
        # The beats first: they are unfolded before the NICs are cut.
        targets = (("heartbeat", node_id, 1.0),) + tuple(
            ("link", name, PARTITION_CAPACITY_FACTOR)
            for name in (f"nic-tx:{node_id}", f"nic-rx:{node_id}")
            if self.network is not None and name in self.network.links
        )
        self._window(targets, cfg.partition_duration_s, "chaos-partition-end")
        self.tracer.instant(
            "chaos",
            f"partition:{node_id}",
            duration=cfg.partition_duration_s,
            node=node_id,
        )

    def _link_window(
        self, kind: str, factor: float, duration: float, end_label: str,
        name: str,
    ) -> None:
        """A link brownout or WAN flap: cut *name* for *duration*."""
        self._window((("link", name, factor),), duration, end_label)
        self.tracer.instant(
            "chaos", f"{kind}:{name}", duration=duration, link=name
        )

    def _start_tier_brownout(self, spec: TierBrownout) -> None:
        # A refuse window keeps its latency factor too.
        targets = (("tier", spec.tier, spec.latency_multiplier),)
        if spec.mode == "refuse":
            targets = (("refuse", spec.tier, 1.0),) + targets
        self._window(targets, spec.duration_s, "chaos-tier-end")
        self.tracer.instant(
            "chaos",
            f"tier-brownout:{spec.tier}",
            duration=spec.duration_s,
            tier=spec.tier,
            mode=spec.mode,
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
