"""The flow-level fabric: paths, max-min fair share, completion events.

Each transfer is a *flow* over a path of unidirectional links derived
from :class:`~repro.cluster.topology.Topology` rack distance:

* same node — bypasses the fabric entirely (pure latency/local time);
* same rack — source NIC-tx → destination NIC-rx;
* cross rack — NIC-tx → rack uplink-tx → core → rack uplink-rx → NIC-rx.

Shared storage tiers (the replicated KV store, NFS, S3) and the container
image registry are modeled as service endpoints in a dedicated storage
rack: their per-direction service links are sized from the tier's
read/write bandwidth, so an *uncontended* transfer costs what the legacy
``latency + size/bandwidth`` model charged (the slowest hop is the tier
itself), while concurrent transfers now compete for every shared hop.

Bandwidth allocation is classic max-min (water-filling): repeatedly find
the most constrained link, give each of its flows an equal share, remove
them, and continue.  All iteration is insertion-ordered, so a seed pins
the whole trace.

Flows are kept in *share levels*: the flows one water-filling step
assigns, so one bottleneck link and one rate.  A level keeps a virtual
clock ``V`` (bytes served per member, advanced as ``share × elapsed``
when the share changes), a heap of its members keyed by the clock value
``V_end`` at which each finishes, per-link member counts, and one engine
timer (label family ``flow-end``) for its earliest finish.  A member's
residual is ``V_end − V(now)``: nothing is settled per flow, and finish
times are exact max-min.

The levels of one link-connected contention component form a *group*
(a join that couples groups merges them).  A flow start, finish or
cancel, or a link's capacity change, re-shares only its group:
water-filling is replayed over the group's links, and each step whose
least-share link carries exactly a level's members (the max-min
certificate; a joining flow takes the first level whose bottleneck it
crosses, or a level of its own) keeps that level whole, with its per-link
member counts standing in for its members.  Only a step whose flows
changed bottleneck moves them, one by one, into a new level whose clock
starts at 0.  Levels whose share or members changed re-arm their timer;
untouched groups keep their levels and timers.  A group of one level is
certified in place when no link's cached fair share undercuts its
bottleneck's: the replay would keep that level after one step.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Optional

from repro.network.config import NetworkModelConfig
from repro.network.link import Link
from repro.sim.engine import EventHandle, Simulator
from repro.trace.tracer import NULL_TRACER, NullTracer, Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.storage.router import StoredObjectRef
    from repro.storage.tiers import TierRegistry

_seq = attrgetter("seq")
_fair = attrgetter("fair")


class _Flow:
    """Internal state of one in-flight transfer."""

    __slots__ = (
        "flow_id",
        "label",
        "links",
        "size_bytes",
        "remaining",
        "on_complete",
        "latency_handle",
        "endpoints",
        "started_at",
        "min_duration_s",
        "finished",
        "span",
        "seq",
        "end_label",
        "level",
        "v_end",
    )

    def __init__(
        self,
        flow_id: int,
        label: str,
        links: tuple[Link, ...],
        size_bytes: float,
        on_complete: Callable[[], None],
        endpoints: tuple[str, ...],
        started_at: float,
        min_duration_s: float,
        end_label: str,
    ) -> None:
        self.flow_id = flow_id
        self.label = label
        self.links = links
        self.size_bytes = size_bytes
        #: Bytes left when the flow left the fabric; in flight, read
        #: :meth:`FlowNetwork.moved_bytes` instead.
        self.remaining = size_bytes
        self.on_complete: Optional[Callable[[], None]] = on_complete
        self.latency_handle: Optional[EventHandle] = None
        self.endpoints = endpoints
        self.started_at = started_at
        self.min_duration_s = min_duration_s
        self.finished = False
        self.span: Optional[Span] = None
        #: Activation sequence number: orders flows that tie.
        self.seq = 0
        #: Label of the level timer while this flow is its earliest finish.
        self.end_label = end_label
        #: The share level serving this flow while it is on the fabric.
        self.level: Optional[_Level] = None
        #: The level's virtual clock value at which this flow finishes.
        self.v_end = 0.0

    @property
    def rate(self) -> float:
        """Current max-min rate (0 off the fabric)."""
        level = self.level
        return level.share if level is not None else 0.0


class _Level:
    """The flows one water-filling step assigns: one bottleneck, one rate.

    Every member gets ``share`` bytes/s, so one virtual clock ``v`` (bytes
    served per member, valid at time ``t`` and advanced lazily when the
    share changes) stands in for every member's residual: a member's
    residual is ``v_end - V(now)``.  ``heap`` orders members by
    ``(v_end, seq)``; cancelled members stay in it until they surface.
    ``counts`` is the number of members on each link, which is all a
    re-share needs to know about them.
    """

    __slots__ = (
        "bottleneck",
        "share",
        "v",
        "t",
        "heap",
        "size",
        "counts",
        "group",
        "timer",
        "stamp",
    )

    def __init__(self, bottleneck: Link, share: float, now: float) -> None:
        self.bottleneck = bottleneck
        self.share = share
        self.v = 0.0
        self.t = now
        self.heap: list[tuple[float, int, _Flow]] = []
        self.size = 0
        self.counts: dict[Link, int] = {}
        self.group: Optional[_Group] = None
        self.timer: Optional[EventHandle] = None
        #: Latest re-share that assigned this level its share.
        self.stamp = 0


class _Group:
    """The levels of one contention component, in water-filling order.

    ``links`` holds every link that carries a member.  Groups merge when a
    joining flow couples them and never split: after departures a group
    may hold several components, which share independently.
    """

    __slots__ = ("levels", "links")

    def __init__(self) -> None:
        self.levels: list[_Level] = []
        self.links: dict[Link, None] = {}


class FlowHandle:
    """Cancellable handle for a transfer.

    Duck-types the ``cancel()`` / ``active`` surface of
    :class:`~repro.sim.engine.EventHandle`, so callers can store it
    wherever they would keep a timer handle (e.g. an attempt's
    ``state_handle``).
    """

    __slots__ = ("_network", "_flow")

    def __init__(self, network: "FlowNetwork", flow: _Flow) -> None:
        self._network = network
        self._flow = flow

    @property
    def active(self) -> bool:
        return not self._flow.finished

    @property
    def label(self) -> str:
        return self._flow.label

    def cancel(self) -> None:
        self._network._cancel(self._flow)


class FlowNetwork:
    """The fabric: endpoints, links, and the max-min flow scheduler."""

    def __init__(
        self,
        sim: Simulator,
        *,
        cluster: "Cluster",
        tiers: "TierRegistry",
        config: NetworkModelConfig,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.tiers = tiers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._node_rack: dict[str, str] = {
            node.node_id: node.rack for node in cluster.nodes
        }
        self._links: dict[str, Link] = {}
        for node in cluster.nodes:
            self._add_link(f"nic-tx:{node.node_id}", config.nic_bandwidth)
            self._add_link(f"nic-rx:{node.node_id}", config.nic_bandwidth)
        racks: list[str] = []
        for node in cluster.nodes:
            if node.rack not in racks:
                racks.append(node.rack)
        #: WAN uplinks of the edge racks (edge-wan preset); targeted by the
        #: ``wan_flap`` chaos archetype.
        self.wan_links: list[Link] = []
        #: link name -> extra per-traversal latency; empty (the single-site
        #: default) keeps the latency arithmetic byte-identical.
        self._wan_latency: dict[str, float] = {}
        for rack in racks:
            if rack in config.edge_racks:
                bandwidth = config.wan_uplink_bandwidth
                assert bandwidth is not None  # enforced by the config
                for direction in ("tx", "rx"):
                    link = self._add_link(f"up-{direction}:{rack}", bandwidth)
                    self.wan_links.append(link)
                    if config.wan_latency_s > 0:
                        self._wan_latency[link.name] = config.wan_latency_s
            else:
                self._add_link(f"up-tx:{rack}", config.uplink_bandwidth)
                self._add_link(f"up-rx:{rack}", config.uplink_bandwidth)
        self._add_link("core", config.core_bandwidth)
        # Shared tiers live in a dedicated storage rack reached through
        # the core; the per-direction service links carry the tier's own
        # streaming bandwidth so the uncontended cost matches the legacy
        # model.
        self._service_rx: dict[str, Link] = {}
        self._service_tx: dict[str, Link] = {}
        for tier in tiers.tiers:
            if not tier.shared:
                continue
            self._service_rx[tier.name] = self._add_link(
                f"svc-rx:{tier.name}", tier.write_bandwidth
            )
            self._service_tx[tier.name] = self._add_link(
                f"svc-tx:{tier.name}", tier.read_bandwidth
            )
        self._registry_link = self._add_link(
            "svc-tx:registry", config.registry_bandwidth
        )
        self._active: dict[int, _Flow] = {}
        self._flow_counter = 0
        self._activation_seq = 0
        self._stamp = 0
        # aggregate statistics
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_cancelled = 0
        self.bytes_completed = 0.0
        self.contention_delay_s = 0.0
        self.peak_active_flows = 0
        # recompute accounting: re-shares that kept every level, those
        # that moved flows between levels, the flows moved, and what a
        # global water-fill per fabric event would have assigned.
        self.level_reshares = 0
        self.waterfill_passes = 0
        self.waterfill_flows = 0
        self.waterfill_flows_full = 0

    def _add_link(self, name: str, bandwidth: float) -> Link:
        link = Link(name, bandwidth)
        self._links[name] = link
        return link

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def links(self) -> dict[str, Link]:
        return self._links

    @property
    def active_flow_count(self) -> int:
        return len(self._active)

    def serves_tier(self, tier_name: str) -> bool:
        return tier_name in self._service_rx

    def node_pressure(self, node_id: str) -> int:
        """Active flows crossing *node_id*'s NICs and its rack uplinks.

        The live contention signal for S39 contention-aware placement: a
        cold start placed here pulls its image through exactly these
        links, so the count of flows already on them is the competition
        it would face.  Unknown nodes (scale-out races) read as zero.
        """
        pressure = 0
        for name in (f"nic-tx:{node_id}", f"nic-rx:{node_id}"):
            link = self._links.get(name)
            if link is not None:
                pressure += link.active_flows
        rack = self._node_rack.get(node_id)
        if rack is not None:
            for name in (f"up-tx:{rack}", f"up-rx:{rack}"):
                link = self._links.get(name)
                if link is not None:
                    pressure += link.active_flows
        return pressure

    # ------------------------------------------------------------------
    # Path construction
    # ------------------------------------------------------------------
    def _node_path(self, src: str, dst: str) -> tuple[Link, ...]:
        """Fabric path between two nodes (empty when same node)."""
        if src == dst:
            return ()
        rack_src = self._node_rack[src]
        rack_dst = self._node_rack[dst]
        if rack_src == rack_dst:
            return (
                self._links[f"nic-tx:{src}"],
                self._links[f"nic-rx:{dst}"],
            )
        return (
            self._links[f"nic-tx:{src}"],
            self._links[f"up-tx:{rack_src}"],
            self._links["core"],
            self._links[f"up-rx:{rack_dst}"],
            self._links[f"nic-rx:{dst}"],
        )

    def _to_service(self, node_id: str, service: Link) -> tuple[Link, ...]:
        rack = self._node_rack[node_id]
        return (
            self._links[f"nic-tx:{node_id}"],
            self._links[f"up-tx:{rack}"],
            self._links["core"],
            service,
        )

    def _from_service(self, service: Link, node_id: str) -> tuple[Link, ...]:
        rack = self._node_rack[node_id]
        return (
            service,
            self._links["core"],
            self._links[f"up-rx:{rack}"],
            self._links[f"nic-rx:{node_id}"],
        )

    # ------------------------------------------------------------------
    # Public transfer API
    # ------------------------------------------------------------------
    def write_checkpoint(
        self,
        *,
        tier_name: str,
        node_id: Optional[str],
        size_bytes: float,
        on_complete: Callable[[], None],
        extra_latency_s: float = 0.0,
        label: str = "",
    ) -> FlowHandle:
        """Checkpoint write from *node_id* onto *tier_name*.

        Shared tiers are a flow to the tier's service endpoint; local
        tiers (and node-less writes) cost the legacy local write time.
        """
        tier = self.tiers.get(tier_name)
        if node_id is not None and self.serves_tier(tier_name):
            return self._start_flow(
                links=self._to_service(node_id, self._service_rx[tier_name]),
                size_bytes=size_bytes,
                on_complete=on_complete,
                latency_s=extra_latency_s + tier.write_latency_s,
                label=label,
                endpoints=(node_id, f"svc:{tier_name}"),
            )
        return self._start_flow(
            links=(),
            size_bytes=size_bytes,
            on_complete=on_complete,
            latency_s=extra_latency_s + tier.write_time(size_bytes),
            label=label,
            endpoints=(node_id,) if node_id is not None else (),
        )

    def fetch_checkpoint(
        self,
        ref: "StoredObjectRef",
        *,
        dest_node: str,
        on_complete: Callable[[], None],
        extra_latency_s: float = 0.0,
        label: str = "",
    ) -> FlowHandle:
        """Restore fetch of *ref*'s payload onto *dest_node* (``t_res``)."""
        tier = self.tiers.get(ref.tier_name)
        if self.serves_tier(ref.tier_name):
            return self._start_flow(
                links=self._from_service(
                    self._service_tx[ref.tier_name], dest_node
                ),
                size_bytes=ref.size_bytes,
                on_complete=on_complete,
                latency_s=extra_latency_s + tier.read_latency_s,
                label=label,
                endpoints=(f"svc:{ref.tier_name}", dest_node),
            )
        if ref.node_id is not None and ref.node_id != dest_node:
            # Non-shared tier on a remote node: peer-to-peer copy.
            return self._start_flow(
                links=self._node_path(ref.node_id, dest_node),
                size_bytes=ref.size_bytes,
                on_complete=on_complete,
                latency_s=extra_latency_s + tier.read_latency_s,
                label=label,
                endpoints=(ref.node_id, dest_node),
            )
        # Same node (or unplaced payload): legacy local read time.
        return self._start_flow(
            links=(),
            size_bytes=ref.size_bytes,
            on_complete=on_complete,
            latency_s=extra_latency_s + tier.read_time(ref.size_bytes),
            label=label,
            endpoints=(dest_node,),
        )

    def flush_copy(
        self,
        *,
        node_id: str,
        size_bytes: float,
        on_complete: Callable[[], None],
        label: str = "",
    ) -> FlowHandle:
        """Background asynchronous flush of a local write to shared storage."""
        target = self._service_rx.get("kv")
        if target is None:
            # No shared KV tier configured: first shared tier, else local.
            target = next(iter(self._service_rx.values()), None)
        if target is None:
            return self._start_flow(
                links=(),
                size_bytes=size_bytes,
                on_complete=on_complete,
                latency_s=0.0,
                label=label,
                endpoints=(node_id,),
            )
        return self._start_flow(
            links=self._to_service(node_id, target),
            size_bytes=size_bytes,
            on_complete=on_complete,
            latency_s=0.0,
            label=label,
            endpoints=(node_id, "svc:flush"),
        )

    def image_pull(
        self,
        *,
        dest_node: str,
        size_bytes: float,
        on_complete: Callable[[], None],
        label: str = "",
    ) -> FlowHandle:
        """Cold-start container image pull from the registry service."""
        return self._start_flow(
            links=self._from_service(self._registry_link, dest_node),
            size_bytes=size_bytes,
            on_complete=on_complete,
            latency_s=0.0,
            label=label,
            endpoints=("svc:registry", dest_node),
        )

    def transfer(
        self,
        src_node: str,
        dst_node: str,
        size_bytes: float,
        *,
        on_complete: Callable[[], None],
        extra_latency_s: float = 0.0,
        label: str = "",
    ) -> FlowHandle:
        """Generic node-to-node transfer (replication state copies)."""
        return self._start_flow(
            links=self._node_path(src_node, dst_node),
            size_bytes=size_bytes,
            on_complete=on_complete,
            latency_s=extra_latency_s,
            label=label,
            endpoints=(src_node, dst_node),
        )

    def uncontended_pull_s(self, size_bytes: float) -> float:
        """Projected image-pull seconds on an idle fabric (estimates only)."""
        path = (self._registry_link, self._links["core"])
        bottleneck = min(
            min(link.bandwidth for link in path), self.config.nic_bandwidth
        )
        return (
            self.config.hop_latency_s * 4 + size_bytes / bottleneck
        )

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def _start_flow(
        self,
        *,
        links: tuple[Link, ...],
        size_bytes: float,
        on_complete: Callable[[], None],
        latency_s: float,
        label: str,
        endpoints: tuple[str, ...],
    ) -> FlowHandle:
        latency = latency_s + self.config.hop_latency_s * len(links)
        if self._wan_latency:
            for link in links:
                latency += self._wan_latency.get(link.name, 0.0)
        if links and size_bytes > 0:
            bottleneck = min(link.bandwidth for link in links)
            min_duration = latency + size_bytes / bottleneck
        else:
            min_duration = latency
        self._flow_counter += 1
        flow = _Flow(
            flow_id=self._flow_counter,
            label=label,
            links=links,
            size_bytes=size_bytes,
            on_complete=on_complete,
            endpoints=endpoints,
            started_at=self.sim.now,
            min_duration_s=min_duration,
            end_label=f"flow-end:{label}",
        )
        if self.tracer.enabled:
            attrs = {"bytes": size_bytes, "hops": len(links)}
            if endpoints:
                attrs["node"] = endpoints[0]
                if len(endpoints) > 1:
                    attrs["dst"] = endpoints[-1]
            flow.span = self.tracer.begin(
                "network_flow", label or f"flow-{flow.flow_id}", **attrs
            )
        self.flows_started += 1
        if not links or size_bytes <= 0:
            # Fabric bypass: same-node / local-tier, pure duration charge.
            flow.latency_handle = self.sim.call_in(
                latency, lambda: self._finish(flow), label=f"xfer:{label}",
            )
        elif latency > 0:
            # The fixed path/tier latency is charged before the flow
            # occupies bandwidth (it models handshakes, not streaming).
            flow.latency_handle = self.sim.call_in(
                latency, lambda: self._activate(flow), label=f"xfer:{label}",
            )
        else:
            self._activate(flow)
        return FlowHandle(self, flow)

    def _activate(self, flow: _Flow) -> None:
        if flow.finished:
            return
        flow.latency_handle = None
        self._activation_seq += 1
        flow.seq = self._activation_seq
        active = self._active
        active[flow.flow_id] = flow
        if len(active) > self.peak_active_flows:
            self.peak_active_flows = len(active)
        self.waterfill_flows_full += len(active)
        now = self.sim.now
        group: Optional[_Group] = None
        for link in flow.links:
            if link.members:
                other = link.group
                if group is None:
                    group = other
                elif other is not group:
                    self._merge(group, other)
            link.attach(flow, now)
        if group is None:
            group = _Group()
        for link in flow.links:
            if link.group is not group:
                link.group = group
                group.links[link] = None
        self._reshare(group, flow, None)

    def _finish(self, flow: _Flow) -> None:
        """Completion of a fabric-bypass (latency-only) flow."""
        if flow.finished:
            return
        flow.finished = True
        flow.latency_handle = None
        self.flows_completed += 1
        self.bytes_completed += flow.size_bytes
        if flow.span is not None:
            self.tracer.finish(flow.span, outcome="completed")
        callback = flow.on_complete
        flow.on_complete = None
        if callback is not None:
            callback()

    def _level_fire(self, level: _Level) -> None:
        """A level's timer: its earliest-finishing member completes."""
        level.timer = None
        # Every change to the level re-arms the timer, so its top is live.
        flow = heapq.heappop(level.heap)[2]
        flow.remaining = 0.0
        flow.finished = True
        self._leave(flow)
        self.flows_completed += 1
        self.bytes_completed += flow.size_bytes
        contention = max(
            0.0, (self.sim.now - flow.started_at) - flow.min_duration_s
        )
        self.contention_delay_s += contention
        if flow.span is not None:
            self.tracer.finish(
                flow.span, outcome="completed", contention_s=contention
            )
        callback = flow.on_complete
        flow.on_complete = None
        if callback is not None:
            callback()

    def _cancel(self, flow: _Flow) -> None:
        if flow.finished:
            return
        flow.finished = True
        flow.on_complete = None
        if flow.span is not None:
            self.tracer.finish(flow.span, outcome="cancelled")
        if flow.latency_handle is not None:
            flow.latency_handle.cancel()
            flow.latency_handle = None
        if flow.level is not None:
            flow.remaining = flow.size_bytes - self.moved_bytes(flow)
            self._leave(flow)
        self.flows_cancelled += 1

    def moved_bytes(self, flow: _Flow) -> float:
        """Bytes *flow* has moved by now, read from its level's clock."""
        level = flow.level
        if level is None:
            return flow.size_bytes - flow.remaining
        clock = level.v + level.share * (self.sim.now - level.t)
        left = flow.v_end - clock
        if left <= 0.0:
            return flow.size_bytes
        return flow.size_bytes - left if left < flow.size_bytes else 0.0

    def _leave(self, flow: _Flow) -> None:
        """Take *flow* off the fabric and re-share what it left behind."""
        level = flow.level
        assert level is not None
        group = level.group
        assert group is not None
        now = self.sim.now
        self._take(level, flow, now)
        flow.level = None
        moved = flow.size_bytes - flow.remaining
        for link in flow.links:
            link.detach(flow, moved, now)
            if not link.members:
                link.group = None
                del group.links[link]
        del self._active[flow.flow_id]
        touched: Optional[_Level] = level
        if not level.size:
            self._retire(level)
            group.levels.remove(level)
            touched = None
        if group.levels:
            self.waterfill_flows_full += len(self._active)
            self._reshare(group, None, touched)

    def set_link_capacity(self, name: str, bandwidth: float) -> float:
        """Change link *name*'s capacity mid-run; return the previous value.

        Used by the chaos layer for partitions and link brownouts.  The
        link's group is re-shared at once.
        """
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        try:
            link = self._links[name]
        except KeyError:
            raise KeyError(f"unknown link {name!r}") from None
        previous = link.bandwidth
        if bandwidth == previous:
            return previous
        link.bandwidth = bandwidth
        if link.members:
            link.fair = bandwidth / len(link.members)
        if link.group is not None:
            self.waterfill_flows_full += len(self._active)
            self._reshare(link.group, None, None)
        return previous

    def fail_endpoint(self, node_id: str) -> int:
        """Cancel every flow touching *node_id* (node failure); count them.

        Victims are found through the node's NIC member sets (every
        active flow with a node endpoint traverses that node's NIC), so
        a failure costs O(node's flows) plus per-component re-shares —
        flows in unrelated components keep their levels and timers.
        """
        seen: dict[int, _Flow] = {}
        for name in (f"nic-tx:{node_id}", f"nic-rx:{node_id}"):
            for flow in self._links[name].members.values():
                if node_id in flow.endpoints:
                    seen[flow.flow_id] = flow
        victims = sorted(seen.values(), key=_seq)
        for flow in victims:
            self._cancel(flow)
        return len(victims)

    # ------------------------------------------------------------------
    # Max-min fair share
    # ------------------------------------------------------------------
    @staticmethod
    def _merge(group: _Group, other: _Group) -> None:
        """Fold *other* into *group* (a joining flow couples them)."""
        for level in other.levels:
            level.group = group
        group.levels.extend(other.levels)
        for link in other.links:
            link.group = group
            group.links[link] = None

    @staticmethod
    def _retire(level: _Level) -> None:
        if level.timer is not None:
            level.timer.cancel()
            level.timer = None
        level.bottleneck.bottleneck_of = None
        level.group = None

    def _arm(self, level: _Level, now: float) -> None:
        """(Re-)arm *level*'s timer for its earliest member's finish.

        The level's clock must be current (``level.t == now``).
        """
        if level.timer is not None:
            level.timer.cancel()
            level.timer = None
        heap = level.heap
        while heap[0][2].level is not level:
            heapq.heappop(heap)
        v_end, _, top = heap[0]
        share = level.share
        if share <= 0.0:  # pragma: no cover - defensive
            return
        due = now + (v_end - level.v) / share
        level.timer = self.sim.call_at(
            due if due > now else now,
            partial(self._level_fire, level),
            label=top.end_label,
        )

    def _reshare(
        self,
        group: _Group,
        joiner: Optional[_Flow],
        touched: Optional[_Level],
    ) -> None:
        """Re-share *group* after a join, a leave or a capacity change.

        A group of one level is one processor-sharing server.  When no
        link of the group has a smaller fair share than the level's
        bottleneck (a tie keeps the bottleneck, as the replay's strict
        ``<`` scan does) and *joiner*, if any, crosses the bottleneck, the
        replay would keep the level whole and stop after one step: the
        level is certified in place with the replay's floats.  Any other
        group is replayed (:meth:`_replay`).
        """
        levels = group.levels
        if len(levels) == 1:
            level = levels[0]
            bottleneck = level.bottleneck
            share = bottleneck.fair
            if (joiner is None or bottleneck in joiner.links) and not (
                min(map(_fair, group.links)) < share
            ):
                if (share != level.share or level is touched
                        or joiner is not None):
                    now = self.sim.now
                    level.v += level.share * (now - level.t)
                    level.t = now
                    level.share = share
                    if joiner is not None:
                        self._join(level, joiner)
                    self._arm(level, now)
                self.level_reshares += 1
                return
        self._replay(group, joiner, touched)

    def _replay(
        self,
        group: _Group,
        joiner: Optional[_Flow],
        touched: Optional[_Level],
    ) -> None:
        """Water-fill *group* again, keeping every level that still holds.

        Each step takes the link with the least fair share among the
        flows not yet assigned, and assigns it those flows.  When they are
        exactly a pending level's members (plus *joiner*, who joins the
        first level whose bottleneck it crosses), the level is kept whole:
        its per-link member counts stand in for its members, so the step
        does no per-flow work.  Otherwise the flows changed bottleneck, and
        the step moves them into a new level, reading each residual off its
        old level's clock (the new clock starts at 0).  Either way every
        step is a water-filling step, so the shares are max-min rates.
        Levels whose share or members changed re-arm their timer;
        *touched* lost a member before the call.
        """
        now = self.sim.now
        links = group.links
        pending = group.levels
        self._stamp = stamp = self._stamp + 1
        changed: dict[_Level, None] = {}
        if touched is not None:
            changed[touched] = None
        if pending:
            bottleneck = pending[0].bottleneck
            share = bottleneck.bandwidth / len(bottleneck.members)
        else:
            share = math.inf
        # The first scan also resets the scratch.  Every group link
        # carries a member, so no count is zero yet.
        for link in links:
            cap = link.wf_cap = link.bandwidth
            count = link.wf_count = len(link.members)
            candidate = cap / count
            if candidate < share:
                share = candidate
                bottleneck = link
        steps: list[tuple[_Level, float]] = []
        homeless = joiner
        joined: Optional[_Level] = None
        moved = 0
        while True:
            carries = homeless is not None and bottleneck in homeless.links
            level = bottleneck.bottleneck_of
            if level is not None and (
                bottleneck.wf_count == level.size + carries
            ):
                pending.remove(level)
                for link, count in level.counts.items():
                    link.wf_cap -= count * share
                    link.wf_count -= count
                if carries:
                    joined = level
                    homeless = None
                    changed[level] = None
                    for link in joiner.links:
                        link.wf_cap -= share
                        link.wf_count -= 1
            else:
                level = _Level(bottleneck, share, now)
                counts = level.counts
                heap = level.heap
                for flow in bottleneck.members.values():
                    old = flow.level
                    if old is None:  # the joiner
                        if homeless is None:
                            continue  # already in a kept level
                        homeless = None
                        flow.v_end = flow.size_bytes
                    elif old.stamp == stamp:
                        continue
                    else:
                        moved += 1
                        self._take(old, flow, now)
                        changed[old] = None
                        if not old.size:
                            self._retire(old)
                            pending.remove(old)
                    flow.level = level
                    heap.append((flow.v_end, flow.seq, flow))
                    for link in flow.links:
                        link.wf_cap -= share
                        link.wf_count -= 1
                        counts[link] = counts.get(link, 0) + 1
                level.size = len(heap)
                heapq.heapify(heap)
                level.group = group
                bottleneck.bottleneck_of = level
                changed[level] = None
            level.stamp = stamp
            steps.append((level, share))
            if not pending and homeless is None:
                break
            if pending:
                bottleneck = pending[0].bottleneck
                cap = bottleneck.wf_cap
                share = (cap if cap > 0.0 else 0.0) / bottleneck.wf_count
            else:
                share = math.inf
            for link in links:
                count = link.wf_count
                if count <= 0:
                    continue
                cap = link.wf_cap
                candidate = (cap if cap > 0.0 else 0.0) / count
                if candidate < share:
                    share = candidate
                    bottleneck = link
        for level, share in steps:
            if share != level.share or level in changed:
                level.v += level.share * (now - level.t)
                level.t = now
                level.share = share
                if level is joined:
                    self._join(level, joiner)
                self._arm(level, now)
        group.levels = [level for level, _ in steps]
        if moved:
            self.waterfill_passes += 1
            self.waterfill_flows += moved
        else:
            self.level_reshares += 1

    @staticmethod
    def _take(level: _Level, flow: _Flow, now: float) -> None:
        """Take *flow* out of *level*; its residual becomes its ``v_end``
        on a clock that starts at 0."""
        left = flow.v_end - (level.v + level.share * (now - level.t))
        flow.v_end = left if left > 0.0 else 0.0
        level.size -= 1
        counts = level.counts
        for link in flow.links:
            count = counts[link] - 1
            if count:
                counts[link] = count
            else:
                del counts[link]

    @staticmethod
    def _join(level: _Level, flow: _Flow) -> None:
        """Add *flow* to *level* with its whole size still to move."""
        flow.level = level
        flow.v_end = level.v + flow.size_bytes
        heapq.heappush(level.heap, (flow.v_end, flow.seq, flow))
        level.size += 1
        counts = level.counts
        for link in flow.links:
            counts[link] = counts.get(link, 0) + 1
