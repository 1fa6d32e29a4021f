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
them, and continue.  Rates are recomputed on every flow start/finish and
the per-flow completion events are rescheduled on the sim engine.  All
iteration is insertion-ordered, so a seed pins the whole trace.

Recomputation is *incremental*: flows partition into link-connected
contention components (two flows are connected when they share a link,
transitively), and a flow start/finish/cancel re-runs water-filling only
over the component touched by the changed flow.  Untouched components
keep their cached rates and their already-scheduled finish events.  This
is exact, not approximate — water-filling never moves capacity across a
component boundary, so the scoped pass performs bit-for-bit the same
float operations the global pass would perform on those flows (the
per-link member order and the link scan order are both preserved), and
the resulting rates are identical.  The global recompute survives only
in the tests, as the oracle the scoped passes are checked against.

The inner loops are tuned for the interpreter without changing a single
float operation or its order (``tests/test_fabric_exact.py`` pins that
against the plain loops): water-filling tracks assigned flows with a
per-pass stamp and stops at the last share level without updating the
per-link scratch; a component spanning the whole fabric takes its link
order from a key cached on each link instead of walking every path; each
flow builds its finish callback and label once.  ``_settle`` touches no
link: link counters close as flows leave (:class:`Link`), which regroups
their sums but no rate, residual or event.
"""

from __future__ import annotations

import math
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

#: A flow is complete once its residual drops below this many bytes.
_EPS_BYTES = 1e-6

_order_key = attrgetter("order_key")


class _Flow:
    """Internal state of one in-flight transfer."""

    __slots__ = (
        "flow_id",
        "label",
        "links",
        "size_bytes",
        "remaining",
        "rate",
        "on_complete",
        "handle",
        "latency_handle",
        "endpoints",
        "started_at",
        "min_duration_s",
        "finished",
        "span",
        "seq",
        "done_below",
        "end_label",
        "on_end",
        "wf_stamp",
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
        self.remaining = size_bytes
        self.rate = 0.0
        self.on_complete: Optional[Callable[[], None]] = on_complete
        self.handle: Optional[EventHandle] = None
        self.latency_handle: Optional[EventHandle] = None
        self.endpoints = endpoints
        self.started_at = started_at
        self.min_duration_s = min_duration_s
        self.finished = False
        self.span: Optional[Span] = None
        #: Activation sequence number; orders component flows exactly the
        #: way the activation-ordered ``_active`` dict would.
        self.seq = 0
        #: Residual at or below which the finish event completes the flow.
        self.done_below = max(_EPS_BYTES, 1e-9 * size_bytes)
        #: Label of every finish event this flow arms.
        self.end_label = end_label
        #: The finish-event callback, built once the flow goes active and
        #: dropped when it leaves the fabric.
        self.on_end: Optional[Callable[[], None]] = None
        #: Latest water-filling pass that assigned this flow a rate.
        self.wf_stamp = 0


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
        #: Links that currently carry at least one active flow.
        self._active_links: dict[Link, None] = {}
        self._flow_counter = 0
        self._activation_seq = 0
        self._wf_stamp = 0
        self._last_settle = 0.0
        # aggregate statistics
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_cancelled = 0
        self.bytes_completed = 0.0
        self.contention_delay_s = 0.0
        self.peak_active_flows = 0
        # recompute accounting: how many flow-rate assignments the scoped
        # passes actually performed vs. what global passes would have.
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
        self._settle()
        self._activation_seq += 1
        flow.seq = self._activation_seq
        self._active[flow.flow_id] = flow
        if len(self._active) > self.peak_active_flows:
            self.peak_active_flows = len(self._active)
        flow.on_end = lambda: self._complete_event(flow)
        for link in flow.links:
            if not link.members:
                self._active_links[link] = None
            link.attach(flow, self.sim.now)
        # The join may have merged components; BFS from the new flow
        # finds exactly the merged component.
        self._recompute_for(self._component(flow))

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

    def _complete_event(self, flow: _Flow) -> None:
        """Scheduled finish event of an active (bandwidth-phase) flow."""
        if flow.finished or flow.flow_id not in self._active:
            return
        self._settle()
        if flow.remaining > flow.done_below:
            # Fired early: the flow's share shrank since this event was
            # scheduled (new sharers joined).  Re-arm from live state.
            rate = flow.rate
            if rate > 0:
                now = self.sim.now
                eta = now + flow.remaining / rate
                flow.handle = self.sim.call_at(
                    eta if eta > now else now,
                    flow.on_end,
                    label=flow.end_label,
                )
            return
        flow.remaining = 0.0
        flow.finished = True
        peers = self._depart(flow)
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
        self._recompute_for(peers)
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
        if flow.handle is not None:
            flow.handle.cancel()
            flow.handle = None
        if flow.flow_id in self._active:
            self._settle()
            self._recompute_for(self._depart(flow))
        self.flows_cancelled += 1

    def moved_bytes(self, flow: _Flow) -> float:
        """Bytes *flow* has moved by now, read without settling."""
        pending = flow.rate * (self.sim.now - self._last_settle)
        return flow.size_bytes - flow.remaining + min(pending, flow.remaining)

    def _depart(self, flow: _Flow) -> list[_Flow]:
        """Remove *flow* from the fabric; return the flows whose rates
        its departure can touch (its former component, in activation
        order — the departed flow excluded)."""
        if len(self._active) > 1:
            peers = self._component(flow)
            peers.remove(flow)
        else:
            peers = []
        del self._active[flow.flow_id]
        flow.on_end = None
        moved = flow.size_bytes - flow.remaining
        for link in flow.links:
            link.detach(flow, moved, self.sim.now)
            if not link.members:
                del self._active_links[link]
        return peers

    def set_link_capacity(self, name: str, bandwidth: float) -> float:
        """Change link *name*'s capacity mid-run; return the previous value.

        Used by the chaos layer for partitions and link brownouts.  Flows
        on the link are re-water-filled immediately: a flow whose finish
        moved later keeps its event (it fires early, observes a positive
        residual, and re-arms), so a capacity *cut* needs no event surgery;
        a restore replaces improved finish events right away.
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
        self._settle()
        link.bandwidth = bandwidth
        if link.members:
            member = next(iter(link.members.values()))
            self._recompute_for(self._component(member))
        return previous

    def fail_endpoint(self, node_id: str) -> int:
        """Cancel every flow touching *node_id* (node failure); count them.

        Victims are found through the node's NIC member sets (every
        active flow with a node endpoint traverses that node's NIC), so
        a failure costs O(node's flows) plus per-component recomputes —
        flows in unrelated components keep their rates and their
        scheduled finish events.
        """
        nic_links = [
            link
            for name in (f"nic-tx:{node_id}", f"nic-rx:{node_id}")
            if (link := self._links.get(name)) is not None
        ]
        if not nic_links:
            # Not a node (e.g. a service endpoint name): legacy scan.
            victims = [
                flow
                for flow in list(self._active.values())
                if node_id in flow.endpoints
            ]
        else:
            seen: dict[int, _Flow] = {}
            for link in nic_links:
                for flow in link.members.values():
                    if node_id in flow.endpoints:
                        seen[flow.flow_id] = flow
            victims = sorted(seen.values(), key=lambda f: f.seq)
        for flow in victims:
            self._cancel(flow)
        return len(victims)

    # ------------------------------------------------------------------
    # Max-min fair share
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Advance every active flow's residual to the current time."""
        now = self.sim.now
        elapsed = now - self._last_settle
        self._last_settle = now
        if elapsed <= 0 or not self._active:
            return
        # Rates are never negative; a zero rate leaves the residual as it
        # was, and a capped move leaves ``remaining - remaining``, i.e. 0.0.
        for flow in self._active.values():
            moved = flow.rate * elapsed
            remaining = flow.remaining
            flow.remaining = remaining - moved if moved < remaining else 0.0

    def _component(self, flow: _Flow) -> list[_Flow]:
        """*flow*'s contention component, in activation order.

        BFS over the live per-link member sets: a flow belongs to the
        component when it shares a link (transitively) with *flow*.  Costs
        O(component), independent of the total active-flow count.
        """
        total = len(self._active)
        for link in flow.links:
            if len(link.members) == total:
                # A hub link (e.g. the core) carries every active flow:
                # the whole fabric is one component, no BFS needed.
                return list(self._active.values())
        found = {flow.flow_id: flow}
        stack = [flow]
        seen_links: set[Link] = set()
        while stack and len(found) < total:
            for link in stack.pop().links:
                if link in seen_links:
                    continue
                seen_links.add(link)
                if len(link.members) == 1:
                    continue
                for other in link.members.values():
                    if other.flow_id not in found:
                        found[other.flow_id] = other
                        stack.append(other)
        if len(found) == total:
            # Single giant component (e.g. everything couples through the
            # core): the activation-ordered active dict *is* the order.
            return list(self._active.values())
        if len(found) == 1:
            return [flow]
        return sorted(found.values(), key=lambda f: f.seq)

    def _waterfill(self, flows: list[_Flow], links: list[Link]) -> None:
        """Water-filling over *flows*/*links*: set each flow's max-min rate.

        *flows* must be in activation order and *links* in
        first-encounter order over those flows — exactly the orders a
        global pass over the activation-ordered ``_active`` dict would
        visit, which makes a scoped pass bit-identical to the global one
        (capacity never moves across a component boundary).  Per-link
        flow order comes from the maintained ``Link.members`` dicts, so
        no members/counts scratch dicts are rebuilt per call.
        """
        self.waterfill_passes += 1
        self.waterfill_flows += len(flows)
        self.waterfill_flows_full += len(self._active)
        for link in links:
            link.wf_cap = link.bandwidth
            link.wf_count = len(link.members)
        # A flow is assigned in this pass once it carries this pass's
        # stamp; older stamps mean unassigned, so no per-pass reset.
        self._wf_stamp = stamp = self._wf_stamp + 1
        left = len(flows)
        while True:
            bottleneck: Optional[Link] = None
            share = math.inf
            for link in links:
                count = link.wf_count
                if count <= 0:
                    continue
                cap = link.wf_cap
                candidate = (0.0 if 0.0 > cap else cap) / count
                if candidate < share:
                    share = candidate
                    bottleneck = link
            if bottleneck is None:  # pragma: no cover - defensive
                for flow in flows:
                    if flow.wf_stamp != stamp:
                        flow.rate = math.inf
                return
            if bottleneck.wf_count == left:
                # Last level: the unassigned flows all cross the
                # bottleneck; their shares end the pass, so the per-link
                # scratch needs no more updates.
                for flow in bottleneck.members.values():
                    if flow.wf_stamp != stamp:
                        flow.rate = share
                return
            for flow in bottleneck.members.values():
                if flow.wf_stamp == stamp:
                    continue
                flow.wf_stamp = stamp
                flow.rate = share
                left -= 1
                for link in flow.links:
                    link.wf_cap -= share
                    link.wf_count -= 1
            bottleneck.wf_cap = 0.0

    @staticmethod
    def _ordered_links(flows: list[_Flow]) -> list[Link]:
        """The links of *flows*, deduplicated in first-encounter order."""
        seen: dict[Link, None] = {}
        for flow in flows:
            for link in flow.links:
                seen[link] = None
        return list(seen)

    def _recompute_for(self, flows: list[_Flow]) -> None:
        """Re-apply fair-share rates to *flows*; move events that improved.

        A flow whose completion moved *later* keeps its event — it will
        fire early, observe a positive residual, and re-arm.  A flow whose
        completion improved by more than the configured tolerance gets its
        event replaced now.  Both paths are deterministic.  Flows outside
        *flows* (other contention components) are untouched: cached rates,
        scheduled finish events and all.
        """
        if not flows:
            return
        if len(flows) == len(self._active):
            # The whole fabric: first-encounter order is the order of
            # (first member's activation, position on its path), which
            # each link caches as it gains or loses its first member.
            links = sorted(self._active_links, key=_order_key)
        else:
            links = self._ordered_links(flows)
        self._waterfill(flows, links)
        now = self.sim.now
        tolerance = self.config.reschedule_tolerance
        call_at = self.sim.call_at
        for flow in flows:
            rate = flow.rate
            if rate <= 0:  # pragma: no cover - defensive
                continue
            eta = now + flow.remaining / rate
            handle = flow.handle
            # ``handle.active``: fired and cancelled events drop their
            # callback.
            if handle is not None and handle.callback is not None:
                due = handle.time
                slack = tolerance * (due - now)
                if eta >= due - (1e-12 if 1e-12 > slack else slack):
                    continue
                handle.cancel()
            flow.handle = call_at(
                eta if eta > now else now,
                flow.on_end,
                label=flow.end_label,
            )
