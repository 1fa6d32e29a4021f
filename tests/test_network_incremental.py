"""Equivalence and chaos tests for the incremental fabric recompute.

The fabric claims its scoped (per-contention-component) water-filling is
*bit-identical* to a global recompute on every churn event.  These tests
hold it to that claim three ways:

* a property test drives randomized churn (starts, cancels, time
  advances, a mix of rack-local / cross-rack / service traffic) and
  checks every live flow's cached rate against an independently written
  textbook global water-filling oracle with exact float equality;
* a dual-run test replays one scripted churn trace against the scoped
  fabric and a test-local global-recompute fabric and demands identical
  completion traces and link statistics;
* chaos tests fail a node mid-transfer while multiple contention
  components are active and assert the teardown never touches rates or
  scheduled finish events in unaffected components — plus a
  fabric-heavy parallel-vs-serial ``run_cells`` byte-identity check.
"""

import math
import pickle
import random

from repro.cluster.cluster import Cluster
from repro.cluster.topology import Topology
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import run_cells
from repro.metrics.network import fabric_compute_stats
from repro.network.config import NetworkModelConfig, TEN_GBE
from repro.network.fabric import FlowNetwork
from repro.sim.engine import Simulator
from repro.storage.tiers import TierRegistry


class GlobalRecomputeFlowNetwork(FlowNetwork):
    """Water-fills every active flow on every churn event: the component
    of any flow is taken to be the whole fabric."""

    def _component(self, flow):
        return list(self._active.values())


def make_fabric(
    num_nodes=12,
    num_racks=3,
    *,
    fabric=FlowNetwork,
    reschedule_tolerance=0.0,
    **overrides,
):
    defaults = dict(
        nic_bandwidth=100.0,
        uplink_bandwidth=1000.0,
        core_bandwidth=10000.0,
        registry_bandwidth=1000.0,
        hop_latency_s=0.0,
        reschedule_tolerance=reschedule_tolerance,
    )
    defaults.update(overrides)
    sim = Simulator(seed=0)
    cluster = Cluster(num_nodes, topology=Topology(num_racks=num_racks))
    network = fabric(
        sim,
        cluster=cluster,
        tiers=TierRegistry(),
        config=NetworkModelConfig(**defaults),
    )
    nodes = [node.node_id for node in cluster.nodes]
    return sim, network, nodes


def global_water_filling(net):
    """Textbook global max-min water-filling, flow_id -> rate.

    Deliberately written the way the pre-incremental fabric computed
    fair shares — per-call members/counts dicts over *all* active flows
    in activation order — and kept independent of the fabric's own
    ``_waterfill`` so a bug there cannot hide in the oracle.
    """
    members = {}
    for flow in net._active.values():
        for link in flow.links:
            members.setdefault(link, []).append(flow)
    remaining = {link: link.bandwidth for link in members}
    counts = {link: len(flows) for link, flows in members.items()}
    unassigned = dict.fromkeys(net._active)
    rates = {}
    while unassigned:
        bottleneck = None
        share = math.inf
        for link, cap in remaining.items():
            if counts[link] <= 0:
                continue
            candidate = max(cap, 0.0) / counts[link]
            if candidate < share:
                share = candidate
                bottleneck = link
        if bottleneck is None:  # pragma: no cover - defensive
            for flow_id in unassigned:
                rates[flow_id] = math.inf
            break
        for flow in members[bottleneck]:
            if flow.flow_id not in unassigned:
                continue
            rates[flow.flow_id] = share
            del unassigned[flow.flow_id]
            for link in flow.links:
                remaining[link] -= share
                counts[link] -= 1
        remaining[bottleneck] = 0.0
    return rates


class TestEquivalenceProperty:
    def _churn(self, *, reschedule_tolerance, steps=260, seed=0xC0FFEE):
        """Randomized churn; after every step, live rates must equal the
        global water-filling oracle with *exact* float equality."""
        sim, net, nodes = make_fabric(
            num_nodes=12,
            num_racks=3,
            reschedule_tolerance=reschedule_tolerance,
        )
        rng = random.Random(seed)
        handles = []
        checked = 0
        for _ in range(steps):
            op = rng.random()
            if op < 0.45:
                src, dst = rng.sample(nodes, 2)
                handles.append(
                    net.transfer(
                        src,
                        dst,
                        rng.uniform(10.0, 5000.0),
                        on_complete=lambda: None,
                    )
                )
            elif op < 0.55:
                handles.append(
                    net.write_checkpoint(
                        tier_name="kv",
                        node_id=rng.choice(nodes),
                        size_bytes=rng.uniform(10.0, 5000.0),
                        on_complete=lambda: None,
                    )
                )
            elif op < 0.65:
                handles.append(
                    net.image_pull(
                        dest_node=rng.choice(nodes),
                        size_bytes=rng.uniform(100.0, 10000.0),
                        on_complete=lambda: None,
                    )
                )
            elif op < 0.8 and handles:
                victim = handles.pop(rng.randrange(len(handles)))
                victim.cancel()
            else:
                sim.run(until=sim.now + rng.uniform(0.01, 0.5))
            expected = global_water_filling(net)
            assert len(expected) == len(net._active)
            for flow_id, flow in net._active.items():
                assert flow.rate == expected[flow_id], (
                    flow_id,
                    flow.label,
                    flow.rate,
                    expected[flow_id],
                )
                checked += 1
        # The churn actually exercised contention, and the incremental
        # fabric actually scoped its recomputes.
        assert checked > steps
        stats = fabric_compute_stats(net)
        assert stats.waterfill_passes > 100
        assert 0.0 < stats.scoped_fraction < 1.0
        sim.run()

    def test_rates_equal_global_oracle_exact_rescheduling(self):
        self._churn(reschedule_tolerance=0.0)

    def test_rates_equal_global_oracle_default_tolerance(self):
        self._churn(reschedule_tolerance=0.01, seed=0xBEEF)

    def test_incremental_and_global_runs_are_identical(self):
        """One scripted churn trace, two fabrics (scoped vs global
        recompute): completion traces and link statistics must match
        exactly — not approximately."""
        rng = random.Random(7)
        ops = []
        t = 0.0
        for i in range(150):
            t += rng.uniform(0.0, 0.2)
            ops.append(("start", t, rng.random(), rng.uniform(10.0, 4000.0)))
            if i % 5 == 4:
                ops.append(
                    ("cancel", t + rng.uniform(0.0, 3.0), rng.randrange(150))
                )

        def drive(fabric):
            sim, net, nodes = make_fabric(
                num_nodes=12, num_racks=3, fabric=fabric
            )
            pick = random.Random(99)
            pairs = [tuple(pick.sample(nodes, 2)) for _ in range(150)]
            handles = []
            completions = []

            def start(pair, size):
                idx = len(handles)
                handles.append(
                    net.transfer(
                        pair[0],
                        pair[1],
                        size,
                        on_complete=lambda: completions.append(
                            (idx, sim.now)
                        ),
                    )
                )

            starts_seen = 0
            for op in ops:
                if op[0] == "start":
                    _, when, _, size = op
                    pair = pairs[starts_seen]
                    starts_seen += 1
                    sim.call_at(
                        when, lambda p=pair, s=size: start(p, s)
                    )
                else:
                    _, when, victim = op
                    sim.call_at(
                        when,
                        lambda v=victim: handles[v].cancel()
                        if v < len(handles)
                        else None,
                    )
            sim.run()
            link_stats = {
                name: (
                    link.bytes_total,
                    link.busy_s,
                    link.flows_total,
                    link.peak_concurrent,
                )
                for name, link in net.links.items()
            }
            counters = (
                net.flows_started,
                net.flows_completed,
                net.flows_cancelled,
                net.bytes_completed,
                net.contention_delay_s,
            )
            return completions, link_stats, counters, fabric_compute_stats(net)

        inc_done, inc_links, inc_counters, inc_stats = drive(FlowNetwork)
        full_done, full_links, full_counters, full_stats = drive(
            GlobalRecomputeFlowNetwork
        )
        assert inc_done == full_done
        assert inc_links == full_links
        assert inc_counters == full_counters
        # Same churn, but the scoped fabric did strictly less rate work.
        assert full_stats.scoped_fraction == 1.0
        assert inc_stats.scoped_fraction < 1.0
        assert inc_stats.flows_recomputed < full_stats.flows_recomputed


class TestChaos:
    def _two_component_setup(self):
        """Two rack-local contention components (rack 0 and rack 1);
        same-rack paths never touch the uplinks or the core, so the
        components are provably disjoint."""
        sim, net, _ = make_fabric(num_nodes=8, num_racks=2)
        by_rack = {}
        for node_id, rack in net._node_rack.items():
            by_rack.setdefault(rack, []).append(node_id)
        rack_a, rack_b = list(by_rack.values())[:2]
        done = {}

        def finish(tag):
            return lambda: done.setdefault(tag, sim.now)

        flows = {
            "a1": net.transfer(rack_a[0], rack_a[1], 300.0,
                               on_complete=finish("a1")),
            "a2": net.transfer(rack_a[0], rack_a[2], 300.0,
                               on_complete=finish("a2")),
            "b1": net.transfer(rack_b[0], rack_b[1], 300.0,
                               on_complete=finish("b1")),
            "b2": net.transfer(rack_b[1], rack_b[2], 500.0,
                               on_complete=finish("b2")),
        }
        return sim, net, rack_a, flows, done

    def test_node_failure_leaves_other_component_untouched(self):
        sim, net, rack_a, flows, done = self._two_component_setup()
        observed = {}

        def fail():
            b_flows = [flows["b1"]._flow, flows["b2"]._flow]
            rates_before = [f.rate for f in b_flows]
            events_before = [f.handle for f in b_flows]
            wf_before = net.waterfill_flows
            observed["victims"] = net.fail_endpoint(rack_a[0])
            # Unaffected component: cached rates untouched and the very
            # same finish-event objects still armed — not re-created.
            assert [f.rate for f in b_flows] == rates_before
            for flow, event in zip(b_flows, events_before):
                assert flow.handle is event
                assert event.active
            # Tearing down the rack-A component recomputed only rack-A
            # survivors (one flow after the first cancel, none after the
            # second) — never the rack-B flows.
            assert net.waterfill_flows - wf_before <= 1

        sim.call_at(1.0, fail)  # mid-transfer: both a-flows still live
        sim.run()
        assert observed["victims"] == 2
        assert "a1" not in done and "a2" not in done
        assert net.flows_cancelled == 2

        # The surviving component's completions match an undisturbed run.
        sim2, net2, _, flows2, done2 = self._two_component_setup()
        sim2.run()
        assert done["b1"] == done2["b1"]
        assert done["b2"] == done2["b2"]

    def test_fail_endpoint_service_fallback_scan(self):
        """Service endpoints have no NIC links; the failure path falls
        back to scanning active flows by endpoint name."""
        sim, net, nodes = make_fabric()
        cancelled = []
        handle = net.write_checkpoint(
            tier_name="kv",
            node_id=nodes[0],
            size_bytes=5000.0,
            on_complete=lambda: cancelled.append("completed"),
        )
        sim.run(until=0.01)  # past the write latency: flow is active
        assert net.active_flow_count == 1
        assert net.fail_endpoint("svc:kv") == 1
        assert not handle.active
        sim.run()
        assert cancelled == []  # never completed
        assert net.flows_cancelled == 1

    def test_cross_rack_hub_welds_one_component(self):
        """Every cross-rack flow shares the core: the fabric must see one
        giant component (scoped == global work, fraction 1.0)."""
        sim, net, _ = make_fabric(num_nodes=8, num_racks=4)
        by_rack = {}
        for node_id, rack in net._node_rack.items():
            by_rack.setdefault(rack, []).append(node_id)
        racks = list(by_rack.values())
        for i in range(4):
            src = racks[i % 4][0]
            dst = racks[(i + 1) % 4][1]
            net.transfer(src, dst, 200.0, on_complete=lambda: None)
        sim.run()
        stats = fabric_compute_stats(net)
        assert stats.scoped_fraction == 1.0
        assert stats.peak_active_flows == 4

    def test_parallel_matches_serial_fabric_heavy(self):
        """Full-platform byte-identity: a fabric-heavy scenario (10 GbE
        model, node failures mid-run) must produce pickle-identical
        summaries from the serial and process-pool runners."""
        scenarios = [
            ScenarioConfig(
                workload=workload,
                strategy="canary",
                error_rate=0.15,
                num_functions=20,
                node_failure_count=2,
                node_failure_window=(1.0, 10.0),
                network=TEN_GBE,
            )
            for workload in ("graph-bfs", "dl-training")
        ]
        cells = [(s, seed) for s in scenarios for seed in (0, 1)]
        serial = run_cells(cells, jobs=1)
        fanned = run_cells(cells, jobs=2)
        assert fanned == serial
        for row_serial, row_fanned in zip(serial, fanned):
            assert pickle.dumps(row_fanned) == pickle.dumps(row_serial)
