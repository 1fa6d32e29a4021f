"""A unidirectional network link with live-flow and usage accounting."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import _Flow, _Group, _Level


class Link:
    """One direction of one physical link (NIC, uplink, core, service).

    Capacity is shared max-min fairly between the flows traversing the
    link; the fabric owns the allocation — the link tracks *which* flows
    are on it (``members``, in activation order) and what has moved
    through it.

    ``bytes_total`` gains each flow's moved bytes when it departs;
    ``busy_s`` gains ``now - busy_since`` when the last member departs.

    ``fair`` is the link's own fair share ``bandwidth / len(members)`` (inf
    while idle), kept current by :meth:`attach`, :meth:`detach` and the
    fabric's ``set_link_capacity``: a re-share of a one-level group reads
    it to certify the level in place.  ``wf_cap`` / ``wf_count`` are
    water-filling scratch slots: the fabric resets them at the start of
    each replay over a group's links, so no per-call ``members``/``counts``
    dicts are built.

    ``group`` is the fabric's share group whose flows use the link (None
    while it is idle) and ``bottleneck_of`` the share level it bounds, if
    any.
    """

    __slots__ = (
        "name",
        "bandwidth",
        "members",
        "bytes_total",
        "flows_total",
        "peak_concurrent",
        "busy_s",
        "busy_since",
        "fair",
        "wf_cap",
        "wf_count",
        "group",
        "bottleneck_of",
    )

    def __init__(self, name: str, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError(f"link {name!r} bandwidth must be positive")
        self.name = name
        self.bandwidth = bandwidth
        #: Active flows on this link, flow_id -> flow, in activation order.
        self.members: dict[int, "_Flow"] = {}
        self.fair = math.inf
        # water-filling scratch (owned by FlowNetwork)
        self.wf_cap = 0.0
        self.wf_count = 0
        self.group: Optional["_Group"] = None
        self.bottleneck_of: Optional["_Level"] = None
        # usage statistics
        self.bytes_total = 0.0
        self.flows_total = 0
        self.peak_concurrent = 0
        self.busy_s = 0.0
        self.busy_since = 0.0

    @property
    def active_flows(self) -> int:
        return len(self.members)

    def attach(self, flow: "_Flow", now: float) -> None:
        members = self.members
        if not members:
            self.busy_since = now
        members[flow.flow_id] = flow
        count = len(members)
        self.fair = self.bandwidth / count
        self.flows_total += 1
        if count > self.peak_concurrent:
            self.peak_concurrent = count

    def detach(self, flow: "_Flow", moved: float, now: float) -> None:
        """Remove *flow*, which moved *moved* bytes over this link."""
        members = self.members
        del members[flow.flow_id]
        self.bytes_total += moved
        if members:
            self.fair = self.bandwidth / len(members)
        else:
            self.fair = math.inf
            self.busy_s += now - self.busy_since

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name}, {self.bandwidth:.3g}B/s, "
            f"active={len(self.members)})"
        )
