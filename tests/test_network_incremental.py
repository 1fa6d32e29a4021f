"""Equivalence and chaos tests for the share-level fabric.

The fabric re-shares a contention component level by level and moves
flows between levels only when they change bottleneck.  These tests
hold it to max-min three ways:

* a property test drives randomized churn (starts, cancels, time
  advances, a mix of rack-local / cross-rack / service traffic) and
  checks every live flow's rate against an independently written
  textbook global water-filling oracle, to 1e-12 relative;
* a dual-run test replays one scripted churn trace against the shipped
  fabric and the per-flow reference fabric of ``test_fabric_exact``
  water-filling every active flow on every event, and demands the same
  completions and link statistics;
* chaos tests fail a node mid-transfer while multiple contention
  components are active and assert the teardown never touches the
  levels, rates or timers of unaffected components — plus a
  fabric-heavy parallel-vs-serial ``run_cells`` byte-identity check.
"""

import math
import pickle
import random

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.topology import Topology
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import run_cells
from repro.metrics.network import fabric_compute_stats
from repro.network.config import NetworkModelConfig, TEN_GBE
from repro.network.fabric import FlowNetwork
from repro.sim.engine import Simulator
from repro.storage.tiers import TierRegistry
from tests.test_fabric_exact import ReferenceFlowNetwork


class GlobalRecomputeFlowNetwork(ReferenceFlowNetwork):
    """The per-flow reference fabric, water-filling every active flow on
    every churn event: the component of any flow is the whole fabric."""

    def _component(self, flow):
        return sorted(self._active.values(), key=lambda f: f.seq)


def make_fabric(
    num_nodes=12,
    num_racks=3,
    *,
    fabric=FlowNetwork,
    **overrides,
):
    defaults = dict(
        nic_bandwidth=100.0,
        uplink_bandwidth=1000.0,
        core_bandwidth=10000.0,
        registry_bandwidth=1000.0,
        hop_latency_s=0.0,
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
    def _churn(self, *, steps=260, seed=0xC0FFEE, capacity_changes=False):
        """Randomized churn; after every step, live rates must equal the
        global water-filling oracle to 1e-12 relative.  With
        *capacity_changes*, some steps also cut or raise a random link's
        capacity (partitions and brownouts)."""
        sim, net, nodes = make_fabric(num_nodes=12, num_racks=3)
        rng = random.Random(seed)
        links = list(net.links.values())
        base = {link.name: link.bandwidth for link in links}
        handles = []
        checked = 0
        for _ in range(steps):
            if capacity_changes and rng.random() < 0.15:
                link = rng.choice(links)
                net.set_link_capacity(
                    link.name, base[link.name] * rng.uniform(0.2, 1.5)
                )
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
                assert flow.rate == pytest.approx(
                    expected[flow_id], rel=1e-12
                ), (
                    flow_id,
                    flow.label,
                    flow.rate,
                    expected[flow_id],
                )
                checked += 1
        # The churn actually exercised contention, and both pure level
        # re-shares and re-shares that moved flows ran.
        assert checked > steps
        stats = fabric_compute_stats(net)
        assert stats.level_reshares > 50
        assert stats.waterfill_passes > 10
        assert 0.0 < stats.scoped_fraction < 1.0
        sim.run()

    def test_rates_equal_global_oracle_exact_rescheduling(self):
        self._churn()

    def test_rates_equal_global_oracle_second_seed(self):
        self._churn(seed=0xBEEF)

    def test_rates_equal_global_oracle_under_capacity_changes(self):
        self._churn(seed=7, capacity_changes=True)

    def test_incremental_and_global_runs_are_identical(self):
        """One scripted churn trace, two fabrics (level re-shares vs a
        global water-fill per event): the same flows complete in the same
        order at the same times (to 1e-9), with the same link counts and
        link byte and busy totals."""
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
        full_done, full_links, full_counters, _ = drive(
            GlobalRecomputeFlowNetwork
        )
        assert [idx for idx, _ in inc_done] == [idx for idx, _ in full_done]
        assert [t for _, t in inc_done] == pytest.approx(
            [t for _, t in full_done], rel=1e-9
        )
        assert inc_links.keys() == full_links.keys()
        for name, stats in inc_links.items():
            assert stats == pytest.approx(full_links[name], rel=1e-9, abs=1e-9)
        assert inc_counters == pytest.approx(full_counters, rel=1e-9)
        # Same churn, but the level fabric moved few flows between levels.
        assert inc_stats.level_reshares > 0
        assert inc_stats.scoped_fraction < 0.5


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
            levels_before = [f.level for f in b_flows]
            timers_before = [f.level.timer for f in b_flows]
            wf_before = net.waterfill_flows
            observed["victims"] = net.fail_endpoint(rack_a[0])
            # Unaffected component: rates untouched and the very same
            # levels and timer events still armed — not re-created.
            assert [f.rate for f in b_flows] == rates_before
            for flow, level, timer in zip(
                b_flows, levels_before, timers_before
            ):
                assert flow.level is level
                assert level.timer is timer
                assert timer.active
            # Tearing down the rack-A component moved at most the rack-A
            # survivor between levels — never the rack-B flows.
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

    def test_cross_rack_hub_welds_one_component(self):
        """Every cross-rack flow shares the core: the fabric must see one
        giant component, one group holding every flow."""
        sim, net, _ = make_fabric(num_nodes=8, num_racks=4)
        by_rack = {}
        for node_id, rack in net._node_rack.items():
            by_rack.setdefault(rack, []).append(node_id)
        racks = list(by_rack.values())
        for i in range(4):
            src = racks[i % 4][0]
            dst = racks[(i + 1) % 4][1]
            net.transfer(src, dst, 200.0, on_complete=lambda: None)
        groups = {flow.level.group for flow in net._active.values()}
        assert len(net._active) == 4 and len(groups) == 1
        sim.run()
        stats = fabric_compute_stats(net)
        assert stats.peak_active_flows == 4
        # The first flow opened the group, three joined it, and three of
        # the four departures left flows behind: seven re-shares, none of
        # which moved a flow between levels.
        assert stats.waterfill_passes == 0
        assert stats.level_reshares == 7

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
