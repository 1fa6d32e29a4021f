"""Differential guard for the share-level fabric.

:class:`ReferenceFlowNetwork` is the per-flow max-min fabric written
plainly: every join, leave or capacity change settles every active flow's
residual, water-fills the changed flow's whole component with a textbook
pass, and re-arms each of its flows' finish events at the exact max-min
finish time.  Each full-platform scenario below runs twice: once on the
shipped fabric (share levels, virtual clocks, one timer per level), once
on the reference (injected where the platform builds its fabric).  Every
simulated outcome — each ``RunSummary`` field and the link usage table —
must agree within 1e-9 relative; counts must be equal.  The event trace's
shape is not compared: the two fabrics arm different events.

The reference keeps its own link counters, accumulated on every settle
(each flow's progress on each of its links, ``elapsed`` on each busy
link), and the shipped departure-closed counters must agree with them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict

import pytest

import repro.core.canary as canary_module
from repro.adaptive import AdaptiveConfig
from repro.core.execution import Attempt
from repro.detection import BackoffPolicy, DetectionConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import _run_platform
from repro.faults.chaos import ChaosConfig
from repro.metrics.network import collect_link_usage
from repro.network.config import get_network_preset
from repro.network.fabric import FlowNetwork, _Flow
from repro.sim.engine import EventHandle
from repro.sla.policy import SLAPolicy
from repro.strategies.cloning import CloningConfig
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig

REL = 1e-9


class ReferenceFlowNetwork(FlowNetwork):
    """The per-flow max-min fabric with exact finish events."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rates: dict[int, float] = {}
        self.left: dict[int, float] = {}
        self.events: dict[int, EventHandle] = {}
        self.last_settle = 0.0
        #: Link counters accumulated on every settle.
        self.shadow_bytes: dict[str, float] = defaultdict(float)
        self.shadow_busy: dict[str, float] = defaultdict(float)

    def _settle(self) -> None:
        now = self.sim.now
        elapsed = now - self.last_settle
        self.last_settle = now
        if elapsed <= 0:
            return
        busy: dict[str, None] = {}
        for flow in self._active.values():
            moved = min(self.rates[flow.flow_id] * elapsed,
                        self.left[flow.flow_id])
            self.left[flow.flow_id] -= moved
            for link in flow.links:
                self.shadow_bytes[link.name] += moved
                busy[link.name] = None
        for name in busy:
            self.shadow_busy[name] += elapsed

    def _component(self, flow: _Flow) -> list[_Flow]:
        found = {flow.flow_id: flow}
        stack = [flow]
        while stack:
            for link in stack.pop().links:
                for other in link.members.values():
                    if other.flow_id not in found:
                        found[other.flow_id] = other
                        stack.append(other)
        return sorted(found.values(), key=lambda f: f.seq)

    @staticmethod
    def _waterfill(flows: list[_Flow]) -> dict[int, float]:
        members: dict = {}
        for flow in flows:
            for link in flow.links:
                members.setdefault(link, []).append(flow)
        cap = {link: link.bandwidth for link in members}
        count = {link: len(on) for link, on in members.items()}
        rates: dict[int, float] = {}
        while len(rates) < len(flows):
            share, bottleneck = math.inf, None
            for link in members:
                if count[link] > 0 and max(cap[link], 0.0) / count[link] < share:
                    share = max(cap[link], 0.0) / count[link]
                    bottleneck = link
            for flow in members[bottleneck]:
                if flow.flow_id in rates:
                    continue
                rates[flow.flow_id] = share
                for link in flow.links:
                    cap[link] -= share
                    count[link] -= 1
        return rates

    def _recompute(self, flows: list[_Flow]) -> None:
        if not flows:
            return
        rates = self._waterfill(flows)
        now = self.sim.now
        for flow in flows:
            rate = self.rates[flow.flow_id] = rates[flow.flow_id]
            old = self.events.pop(flow.flow_id, None)
            if old is not None:
                old.cancel()
            self.events[flow.flow_id] = self.sim.call_at(
                now + self.left[flow.flow_id] / rate,
                lambda f=flow: self._complete(f),
                label=flow.end_label,
            )

    def _activate(self, flow: _Flow) -> None:
        if flow.finished:
            return
        flow.latency_handle = None
        self._settle()
        self._activation_seq += 1
        flow.seq = self._activation_seq
        self._active[flow.flow_id] = flow
        self.peak_active_flows = max(self.peak_active_flows,
                                     len(self._active))
        self.left[flow.flow_id] = flow.size_bytes
        for link in flow.links:
            link.attach(flow, self.sim.now)
        self._recompute(self._component(flow))

    def _depart(self, flow: _Flow) -> list[_Flow]:
        peers = [f for f in self._component(flow) if f is not flow]
        del self._active[flow.flow_id]
        del self.rates[flow.flow_id]
        flow.remaining = self.left.pop(flow.flow_id)
        for link in flow.links:
            link.detach(flow, flow.size_bytes - flow.remaining, self.sim.now)
        return peers

    def _complete(self, flow: _Flow) -> None:
        self._settle()
        del self.events[flow.flow_id]
        # A completed flow credits the residue its last settle left.
        for link in flow.links:
            self.shadow_bytes[link.name] += self.left[flow.flow_id]
        self.left[flow.flow_id] = 0.0
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
        self._recompute(peers)
        callback, flow.on_complete = flow.on_complete, None
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
        if flow.flow_id in self._active:
            self._settle()
            self.events.pop(flow.flow_id).cancel()
            self._recompute(self._depart(flow))
        self.flows_cancelled += 1

    def moved_bytes(self, flow: _Flow) -> float:
        if flow.flow_id not in self._active:
            return flow.size_bytes - flow.remaining
        left = self.left[flow.flow_id]
        pending = self.rates[flow.flow_id] * (self.sim.now - self.last_settle)
        return flow.size_bytes - left + min(pending, left)

    def set_link_capacity(self, name: str, bandwidth: float) -> float:
        link = self._links[name]
        previous, link.bandwidth = link.bandwidth, bandwidth
        self._settle()
        if link.members:
            self._recompute(self._component(next(iter(link.members.values()))))
        return previous


def _fabric_crash() -> ScenarioConfig:
    return ScenarioConfig(
        workload="graph-bfs", strategy="canary", error_rate=0.15,
        num_functions=160, jobs=2, num_nodes=8,
        node_failure_count=2, node_failure_window=(1.0, 10.0),
        network=get_network_preset("10gbe"),
    )


def _fabric_cloning() -> ScenarioConfig:
    return ScenarioConfig(
        workload="graph-bfs", strategy="cloning", error_rate=0.15,
        num_functions=160, num_nodes=8,
        network=get_network_preset("10gbe"),
        cloning=CloningConfig(clones=2),
    )


def _edge_adaptive() -> ScenarioConfig:
    return ScenarioConfig(
        workload="micro-python", strategy="canary", error_rate=0.05,
        num_nodes=8,
        network=get_network_preset("edge-wan"),
        chaos=ChaosConfig(
            wan_flaps=3, wan_flap_window=(10.0, 200.0),
            wan_flap_duration_s=10.0, wan_flap_factor=0.2,
        ),
        detection=DetectionConfig(),
        backoff=BackoffPolicy(),
        traffic=TrafficConfig(
            tenants=(
                Tenant(
                    name="edge",
                    arrivals=PoissonArrivals(rate_per_s=1.5),
                    workloads=("micro-python",),
                    sla=SLAPolicy(deadline_s=30.0),
                ),
            ),
            duration_s=240.0,
        ),
        adaptive=AdaptiveConfig(),
    )


SCENARIOS = {
    "10gbe-node-failures": _fabric_crash,
    "10gbe-cloning": _fabric_cloning,
    "edge-wan-adaptive": _edge_adaptive,
}


def _run(scenario: ScenarioConfig, fabric: type, monkeypatch):
    progress = Attempt.continuous_progress
    with monkeypatch.context() as patch:
        patch.setattr(canary_module, "FlowNetwork", fabric)
        # A failure counts as recovered when a live attempt's progress
        # reaches the progress at the kill; the check scheduled at the
        # computed crossing can miss it by one ulp and resolve a state
        # later.  Which side of that ulp a run lands on is not a fabric
        # outcome, so both runs read progress rounded to 1e-9 states.
        patch.setattr(
            Attempt, "continuous_progress",
            lambda self, now: round(progress(self, now), 9),
        )
        platform = _run_platform(scenario, seed=0)
    assert type(platform.network) is fabric
    return platform


def _outcome(platform) -> tuple:
    return (
        asdict(platform.summary()),
        collect_link_usage(platform.network, platform.sim.now),
        platform.network.flows_started,
    )


def _assert_close(fast, reference) -> None:
    """Equal counts and strings; floats within ``REL`` relative."""
    assert type(fast) is type(reference)
    if isinstance(fast, float):
        assert fast == pytest.approx(reference, rel=REL, abs=1e-9)
    elif isinstance(fast, dict):
        assert fast.keys() == reference.keys()
        for key in fast:
            _assert_close(fast[key], reference[key])
    elif isinstance(fast, (tuple, list)):
        assert len(fast) == len(reference)
        for a, b in zip(fast, reference):
            _assert_close(a, b)
    elif hasattr(fast, "__dataclass_fields__"):
        _assert_close(asdict(fast), asdict(reference))
    else:
        assert fast == reference


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_fast_fabric_matches_reference_exactly(name, monkeypatch):
    scenario = SCENARIOS[name]()
    fast = _outcome(_run(scenario, FlowNetwork, monkeypatch))
    reference_platform = _run(scenario, ReferenceFlowNetwork, monkeypatch)
    reference = _outcome(reference_platform)
    summary, links, flows = fast
    # The scenario really drove the fabric.
    assert flows > 50
    assert any(usage.bytes_total > 0 for usage in links)
    _assert_close(fast, reference)
    # The departure-closed counters agree with the per-settle ones.
    network = reference_platform.network
    assert network.active_flow_count == 0
    for usage in links:
        assert usage.bytes_total == pytest.approx(
            network.shadow_bytes[usage.name], rel=REL, abs=1e-6
        )
        assert usage.busy_s == pytest.approx(
            network.shadow_busy[usage.name], rel=REL, abs=1e-9
        )
