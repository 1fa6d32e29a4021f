"""Exactness guard for the fabric hot path.

:class:`ReferenceFlowNetwork` keeps the straightforward inner loops of the
flow fabric — ``_settle``, ``_waterfill``, ``_ordered_links`` and
``_recompute_for`` exactly as they read before the hot path was tuned —
and each full-platform scenario below runs twice: once on the shipped
fabric, once on the reference one (injected where the platform builds its
fabric).  Every simulated outcome must match with *exact* float equality,
and so must the event trace's shape (events scheduled and cancelled): a
speed-up of the fabric may regroup Python work, never float operations.

Link byte and busy counters are not part of that contract: both fabrics
close them through the shared ``_depart``.  The reference also keeps the
original per-settle accumulation as shadow counters (each settle adds
every flow's progress to its links and ``elapsed`` to each active link; a
completing flow credits its last residual), and the shipped counters
must agree with them to 1e-9 relative.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict
from typing import Optional

import pytest

import repro.core.canary as canary_module
from repro.adaptive import AdaptiveConfig
from repro.detection import BackoffPolicy, DetectionConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import _run_platform
from repro.faults.chaos import ChaosConfig
from repro.metrics.engine import collect_engine_stats
from repro.metrics.network import collect_link_usage
from repro.network.config import get_network_preset
from repro.network.fabric import FlowNetwork, _Flow
from repro.network.link import Link
from repro.sla.policy import SLAPolicy
from repro.strategies.cloning import CloningConfig
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig


class ReferenceFlowNetwork(FlowNetwork):
    """The fabric with its original, unoptimised inner loops."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Per-settle link counters, as the fabric kept them before link
        #: counters closed at departure.
        self.shadow_bytes: dict[str, float] = defaultdict(float)
        self.shadow_busy: dict[str, float] = defaultdict(float)
        #: flow_id -> residual after the flow's latest settle.
        self._residual: dict[int, float] = {}

    def _settle(self) -> None:
        """Advance every active flow's residual to the current time."""
        now = self.sim.now
        elapsed = now - self._last_settle
        self._last_settle = now
        if elapsed <= 0 or not self._active:
            return
        for flow in self._active.values():
            rate = flow.rate
            if rate <= 0:
                continue
            moved = rate * elapsed
            if moved > flow.remaining:
                moved = flow.remaining
            flow.remaining -= moved
            self._residual[flow.flow_id] = flow.remaining
            for link in flow.links:
                self.shadow_bytes[link.name] += moved
        for link in self._active_links:
            self.shadow_busy[link.name] += elapsed

    def _depart(self, flow: _Flow) -> list[_Flow]:
        residual = self._residual.pop(flow.flow_id, flow.size_bytes)
        if flow.remaining == 0.0 and residual > 0:
            # A completed flow: credit the residue its last settle left.
            for link in flow.links:
                self.shadow_bytes[link.name] += residual
        return super()._depart(flow)

    def _waterfill(
        self, flows: list[_Flow], links: list[Link]
    ) -> dict[int, float]:
        for link in links:
            link.wf_cap = link.bandwidth
            link.wf_count = len(link.members)
        unassigned = dict.fromkeys(flow.flow_id for flow in flows)
        rates: dict[int, float] = {}
        self.waterfill_passes += 1
        self.waterfill_flows += len(flows)
        self.waterfill_flows_full += len(self._active)
        while unassigned:
            bottleneck: Optional[Link] = None
            share = math.inf
            for link in links:
                if link.wf_count <= 0:
                    continue
                candidate = max(link.wf_cap, 0.0) / link.wf_count
                if candidate < share:
                    share = candidate
                    bottleneck = link
            if bottleneck is None:  # pragma: no cover - defensive
                for flow_id in unassigned:
                    rates[flow_id] = math.inf
                break
            for flow in bottleneck.members.values():
                if flow.flow_id not in unassigned:
                    continue
                rates[flow.flow_id] = share
                del unassigned[flow.flow_id]
                for link in flow.links:
                    link.wf_cap -= share
                    link.wf_count -= 1
            bottleneck.wf_cap = 0.0
        return rates

    @staticmethod
    def _ordered_links(flows: list[_Flow]) -> list[Link]:
        seen: dict[Link, None] = {}
        for flow in flows:
            for link in flow.links:
                seen[link] = None
        return list(seen)

    def _recompute_for(self, flows: list[_Flow]) -> None:
        if not flows:
            return
        rates = self._waterfill(flows, self._ordered_links(flows))
        now = self.sim.now
        tolerance = self.config.reschedule_tolerance
        for flow in flows:
            rate = rates[flow.flow_id]
            flow.rate = rate
            if rate <= 0:  # pragma: no cover - defensive
                continue
            eta = now + flow.remaining / rate
            handle = flow.handle
            if handle is not None and handle.active:
                slack = tolerance * (handle.time - now)
                if eta >= handle.time - max(slack, 1e-12):
                    continue
                handle.cancel()
            flow.handle = self.sim.call_at(
                max(now, eta),
                lambda f=flow: self._complete_event(f),
                label=f"flow-end:{flow.label}",
            )


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
    with monkeypatch.context() as patch:
        patch.setattr(canary_module, "FlowNetwork", fabric)
        platform = _run_platform(scenario, seed=0)
    assert type(platform.network) is fabric
    return platform


def _outcome(platform) -> tuple:
    engine = collect_engine_stats(platform.sim)
    return (
        asdict(platform.summary()),
        collect_link_usage(platform.network, platform.sim.now),
        engine.pushes,
        engine.cancelled_total,
        platform.network.flows_started,
    )


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_fast_fabric_matches_reference_exactly(name, monkeypatch):
    scenario = SCENARIOS[name]()
    fast = _outcome(_run(scenario, FlowNetwork, monkeypatch))
    reference_platform = _run(scenario, ReferenceFlowNetwork, monkeypatch)
    reference = _outcome(reference_platform)
    summary, links, pushes, cancelled, flows = fast
    # The scenario really drove the fabric.
    assert flows > 50
    assert any(usage.bytes_total > 0 for usage in links)
    assert summary == reference[0]
    assert links == reference[1]
    assert (pushes, cancelled) == (reference[2], reference[3])
    assert flows == reference[4]
    # The departure-closed counters agree with the per-settle ones.
    network = reference_platform.network
    assert network.active_flow_count == 0
    for usage in links:
        assert usage.bytes_total == pytest.approx(
            network.shadow_bytes[usage.name], rel=1e-9, abs=1e-6
        )
        assert usage.busy_s == pytest.approx(
            network.shadow_busy[usage.name], rel=1e-9, abs=1e-9
        )
