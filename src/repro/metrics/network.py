"""Network metrics: per-link utilization and flow-level summaries.

Companion to :mod:`repro.network` — turns a finished run's fabric into
flat, regression-friendly numbers: a per-link usage table and the
scalar aggregates folded into :class:`RunSummary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import FlowNetwork


@dataclass(frozen=True)
class LinkUsage:
    """Usage of one unidirectional link over a run."""

    name: str
    bandwidth: float
    bytes_total: float
    flows_total: int
    peak_concurrent_flows: int
    busy_s: float
    #: Fraction of the link's byte capacity used over the run horizon.
    utilization: float


@dataclass(frozen=True)
class NetworkStats:
    """Scalar aggregates of a run's fabric traffic."""

    flows_started: int
    flows_completed: int
    flows_cancelled: int
    bytes_total: float
    contention_delay_s: float
    peak_link_utilization: float


@dataclass(frozen=True)
class FabricComputeStats:
    """How much rate-recompute work a run's fabric actually performed.

    Every fabric event (a flow joining or leaving a component, or a
    capacity change) re-shares the component's share levels.  A *level
    re-share* keeps every level whole and does no per-flow work;
    ``waterfill_passes`` counts the other events, in which flows changed
    bottleneck and were water-filled one by one into new levels
    (``flows_recomputed`` of them in all).  ``level_fraction`` is the
    share of events that were level re-shares.  ``flows_full_equivalent``
    is what a global water-fill on every event would have assigned, and
    ``scoped_fraction`` is ``flows_recomputed`` over it.
    """

    level_reshares: int
    waterfill_passes: int
    flows_recomputed: int
    flows_full_equivalent: int
    peak_active_flows: int
    scoped_fraction: float
    level_fraction: float


def fabric_compute_stats(
    network: Optional["FlowNetwork"],
) -> Optional[FabricComputeStats]:
    """Recompute-work accounting of a finished run's fabric."""
    if network is None:
        return None
    full = network.waterfill_flows_full
    events = network.level_reshares + network.waterfill_passes
    return FabricComputeStats(
        level_reshares=network.level_reshares,
        waterfill_passes=network.waterfill_passes,
        flows_recomputed=network.waterfill_flows,
        flows_full_equivalent=full,
        peak_active_flows=network.peak_active_flows,
        scoped_fraction=(
            network.waterfill_flows / full if full > 0 else 0.0
        ),
        level_fraction=(
            network.level_reshares / events if events > 0 else 0.0
        ),
    )


def collect_link_usage(
    network: "FlowNetwork", horizon_s: float
) -> tuple[LinkUsage, ...]:
    """Per-link usage table, in fabric declaration order.

    Mid-run, in-flight progress (read off each flow's share-level clock)
    and open busy intervals are added; the read changes no fabric state.
    """
    usages = []
    for link in network.links.values():
        bytes_total = link.bytes_total
        busy_s = link.busy_s
        if link.members:
            busy_s += network.sim.now - link.busy_since
            for flow in link.members.values():
                bytes_total += network.moved_bytes(flow)
        capacity = link.bandwidth * horizon_s
        usages.append(
            LinkUsage(
                name=link.name,
                bandwidth=link.bandwidth,
                bytes_total=bytes_total,
                flows_total=link.flows_total,
                peak_concurrent_flows=link.peak_concurrent,
                busy_s=busy_s,
                utilization=(
                    bytes_total / capacity if capacity > 0 else 0.0
                ),
            )
        )
    return tuple(usages)


def collect_network_stats(
    network: Optional["FlowNetwork"], horizon_s: float
) -> Optional[NetworkStats]:
    """Aggregate a fabric into the scalars carried by ``RunSummary``."""
    if network is None:
        return None
    peak = max(
        (usage.utilization for usage in collect_link_usage(network, horizon_s)),
        default=0.0,
    )
    return NetworkStats(
        flows_started=network.flows_started,
        flows_completed=network.flows_completed,
        flows_cancelled=network.flows_cancelled,
        bytes_total=network.bytes_completed,
        contention_delay_s=network.contention_delay_s,
        peak_link_utilization=peak,
    )
