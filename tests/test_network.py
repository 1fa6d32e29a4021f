"""Tests for the contention-aware flow-level network model."""

import random
from collections import Counter

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.topology import Topology
from repro.core.canary import CanaryPlatform
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_scenario
from repro.network.config import (
    NETWORK_PRESETS,
    NetworkModelConfig,
    TEN_GBE,
    get_network_preset,
)
from repro.network.fabric import FlowNetwork
from repro.network.link import Link
from repro.metrics.network import (
    collect_link_usage,
    collect_network_stats,
)
from repro.sim.engine import Simulator
from repro.storage.router import StoredObjectRef
from repro.storage.tiers import TierRegistry


def make_fabric(num_nodes=4, num_racks=4, **overrides):
    """A small fabric with simple capacities."""
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
    network = FlowNetwork(
        sim,
        cluster=cluster,
        tiers=TierRegistry(),
        config=NetworkModelConfig(**defaults),
    )
    return sim, network


class TestConfig:
    def test_presets_include_off_and_10gbe(self):
        assert NETWORK_PRESETS["off"] is None
        assert NETWORK_PRESETS["10gbe"] is TEN_GBE
        assert TEN_GBE.nic_bandwidth == pytest.approx(1.25e9)

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="10gbe"):
            get_network_preset("bogus")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nic_bandwidth": 0.0},
            {"uplink_bandwidth": -1.0},
            {"core_bandwidth": 0.0},
            {"registry_bandwidth": 0.0},
            {"hop_latency_s": -1e-6},
            {"wan_latency_s": -0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetworkModelConfig(**kwargs)

    def test_link_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            Link("x", 0.0)


class TestFairShare:
    def test_single_flow_runs_at_bottleneck(self):
        sim, net = make_fabric()
        done = []
        net.transfer("node-00", "node-01", 100.0,
                     on_complete=lambda: done.append(sim.now))
        sim.run()
        # 100 bytes over the 100 B/s NIC bottleneck.
        assert done == [pytest.approx(1.0)]
        assert net.flows_completed == 1
        assert net.contention_delay_s == pytest.approx(0.0, abs=1e-9)

    def test_two_flows_share_a_link_max_min(self):
        sim, net = make_fabric()
        done = {}
        # Both flows leave node-00: they share its NIC-tx.
        net.transfer("node-00", "node-01", 100.0,
                     on_complete=lambda: done.setdefault("a", sim.now))
        net.transfer("node-00", "node-02", 100.0,
                     on_complete=lambda: done.setdefault("b", sim.now))
        sim.run()
        assert done["a"] == pytest.approx(2.0)
        assert done["b"] == pytest.approx(2.0)
        assert net.contention_delay_s == pytest.approx(2.0)

    def test_staggered_join_reschedules_in_flight_flow(self):
        sim, net = make_fabric()
        done = {}
        net.transfer("node-00", "node-01", 100.0,
                     on_complete=lambda: done.setdefault("a", sim.now))
        sim.call_at(
            0.5,
            lambda: net.transfer(
                "node-00", "node-02", 100.0,
                on_complete=lambda: done.setdefault("b", sim.now),
            ),
        )
        sim.run()
        # A: 50 bytes alone, then 50 bytes at half rate -> 0.5 + 1.0.
        assert done["a"] == pytest.approx(1.5)
        # B: 50 B/s while A lives (50 bytes), then full rate for the rest.
        assert done["b"] == pytest.approx(2.0)

    def test_water_filling_gives_unused_share_to_other_flows(self):
        sim, net = make_fabric()
        done = {}
        # A and B share nic-tx:node-00 (50 B/s each); C shares
        # nic-rx:node-01 with A, so max-min gives C the 50 B/s A cannot use.
        net.transfer("node-00", "node-01", 100.0,
                     on_complete=lambda: done.setdefault("a", sim.now))
        net.transfer("node-00", "node-02", 100.0,
                     on_complete=lambda: done.setdefault("b", sim.now))
        net.transfer("node-03", "node-01", 150.0,
                     on_complete=lambda: done.setdefault("c", sim.now))
        sim.run()
        assert done["a"] == pytest.approx(2.0)
        assert done["b"] == pytest.approx(2.0)
        # C: 100 bytes at 50 B/s, then 50 bytes at full NIC rate.
        assert done["c"] == pytest.approx(2.5)

    def test_same_node_transfer_bypasses_fabric(self):
        sim, net = make_fabric()
        done = []
        net.transfer("node-00", "node-00", 1e12,
                     on_complete=lambda: done.append(sim.now),
                     extra_latency_s=0.25)
        sim.run()
        assert done == [pytest.approx(0.25)]
        assert all(link.flows_total == 0 for link in net.links.values())

    def test_hop_latency_charged_before_bandwidth(self):
        sim, net = make_fabric(hop_latency_s=0.1)
        done = []
        net.transfer("node-00", "node-01", 100.0,
                     on_complete=lambda: done.append(sim.now))
        sim.run()
        # 5 hops cross-rack at 0.1s each, then 1s of streaming.
        assert done == [pytest.approx(1.5)]

    def test_same_rack_path_skips_uplink_and_core(self):
        sim, net = make_fabric(num_racks=1)
        net.transfer("node-00", "node-01", 100.0, on_complete=lambda: None)
        sim.run()
        assert net.links["nic-tx:node-00"].flows_total == 1
        assert net.links["core"].flows_total == 0


class TestStorageAndRegistryEndpoints:
    def test_uncontended_shared_write_matches_legacy_time(self):
        # The service link carries the tier's write bandwidth, so a lone
        # write costs exactly what tiers.write_time charges (NFS is slower
        # than the NIC).
        sim, net = make_fabric(nic_bandwidth=1.25e9, uplink_bandwidth=2.5e9,
                               core_bandwidth=10e9)
        tier = net.tiers.get("nfs")
        size = 512e6
        done = []
        net.write_checkpoint(tier_name="nfs", node_id="node-00",
                             size_bytes=size,
                             on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(tier.write_time(size), rel=1e-9)]

    def test_uncontended_shared_read_matches_legacy_time(self):
        sim, net = make_fabric(nic_bandwidth=1.25e9, uplink_bandwidth=2.5e9,
                               core_bandwidth=10e9)
        tier = net.tiers.get("nfs")
        ref = StoredObjectRef("k", "nfs", 256e6, "node-02")
        done = []
        net.fetch_checkpoint(ref, dest_node="node-00",
                             on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(tier.read_time(ref.size_bytes),
                                      rel=1e-9)]

    def test_kv_read_is_nic_bound_on_the_fabric(self):
        # The KV tier reads at 4 GiB/s but a single node's NIC is 10 GbE:
        # the fabric model caps the fetch at NIC speed.
        sim, net = make_fabric(nic_bandwidth=1.25e9, uplink_bandwidth=2.5e9,
                               core_bandwidth=10e9)
        tier = net.tiers.get("kv")
        ref = StoredObjectRef("k", "kv", 1e9, None)
        done = []
        net.fetch_checkpoint(ref, dest_node="node-00",
                             on_complete=lambda: done.append(sim.now))
        sim.run()
        expected = tier.read_latency_s + ref.size_bytes / 1.25e9
        assert done == [pytest.approx(expected, rel=1e-9)]
        assert expected > tier.read_time(ref.size_bytes)

    def test_local_tier_fetch_charges_legacy_read_time(self):
        sim, net = make_fabric()
        tier = net.tiers.get("pmem")
        ref = StoredObjectRef("k", "pmem", 1e9, "node-00")
        done = []
        net.fetch_checkpoint(ref, dest_node="node-00",
                             on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(tier.read_time(ref.size_bytes))]
        assert all(link.flows_total == 0 for link in net.links.values())

    def test_remote_local_tier_fetch_is_peer_to_peer(self):
        sim, net = make_fabric()
        ref = StoredObjectRef("k", "pmem", 100.0, "node-01")
        done = []
        net.fetch_checkpoint(ref, dest_node="node-00",
                             on_complete=lambda: done.append(sim.now))
        sim.run()
        assert net.links["nic-tx:node-01"].flows_total == 1
        assert net.links["nic-rx:node-00"].flows_total == 1

    def test_concurrent_image_pulls_contend_on_registry(self):
        sim, net = make_fabric(registry_bandwidth=100.0)
        done = []
        for node in ("node-00", "node-01", "node-02", "node-03"):
            net.image_pull(dest_node=node, size_bytes=100.0,
                           on_complete=lambda: done.append(sim.now))
        sim.run()
        # Four pulls share the 100 B/s registry egress.
        assert done == [pytest.approx(4.0)] * 4


class TestCancellation:
    def test_cancel_stops_flow_and_frees_bandwidth(self):
        sim, net = make_fabric()
        done = {}
        handle = net.transfer("node-00", "node-01", 100.0,
                              on_complete=lambda: done.setdefault("a"))
        net.transfer("node-00", "node-02", 100.0,
                     on_complete=lambda: done.setdefault("b", sim.now))
        sim.call_at(1.0, handle.cancel)
        sim.run()
        assert "a" not in done
        # B: 1s at 50 B/s, then 50 bytes at the full NIC.
        assert done["b"] == pytest.approx(1.5)
        assert net.flows_cancelled == 1
        assert not handle.active
        handle.cancel()  # idempotent
        assert net.flows_cancelled == 1

    def test_fail_endpoint_cancels_touching_flows(self):
        sim, net = make_fabric()
        done = []
        net.transfer("node-00", "node-01", 100.0,
                     on_complete=lambda: done.append("dead"))
        net.transfer("node-02", "node-03", 100.0,
                     on_complete=lambda: done.append("alive"))
        sim.call_at(0.5, lambda: net.fail_endpoint("node-01"))
        sim.run()
        assert done == ["alive"]
        assert net.flows_cancelled == 1

    def test_cancel_during_latency_phase(self):
        sim, net = make_fabric(hop_latency_s=10.0)
        done = []
        handle = net.transfer("node-00", "node-01", 100.0,
                              on_complete=lambda: done.append(sim.now))
        sim.call_at(1.0, handle.cancel)
        sim.run()
        assert done == []
        assert net.active_flow_count == 0


class TestMetrics:
    def test_link_usage_accounts_all_bytes(self):
        sim, net = make_fabric()
        net.transfer("node-00", "node-01", 100.0, on_complete=lambda: None)
        net.transfer("node-00", "node-02", 100.0, on_complete=lambda: None)
        sim.run()
        usage = {u.name: u for u in collect_link_usage(net, sim.now)}
        nic = usage["nic-tx:node-00"]
        assert nic.bytes_total == pytest.approx(200.0)
        assert nic.flows_total == 2
        assert nic.peak_concurrent_flows == 2
        assert nic.busy_s == pytest.approx(sim.now)
        # Fully busy the whole run at capacity.
        assert nic.utilization == pytest.approx(1.0)

    def test_mid_transfer_read_counts_progress_since_last_settle(self):
        # Five hops of 0.5 s: the flow reaches the fabric at 2.5 s, alone.
        sim, net = make_fabric(hop_latency_s=0.5)
        net.transfer("node-00", "node-01", 1000.0, on_complete=lambda: None)
        sim.run(until=6.0)
        assert net.active_flow_count == 1
        usage = {u.name: u for u in collect_link_usage(net, sim.now)}
        for name in ("nic-tx:node-00", "core", "nic-rx:node-01"):
            assert usage[name].bytes_total == 100.0 * (6.0 - 2.5)
            assert usage[name].busy_s == 6.0 - 2.5
        sim.run()
        usage = {u.name: u for u in collect_link_usage(net, sim.now)}
        assert usage["core"].bytes_total == 1000.0
        assert usage["core"].busy_s == pytest.approx(10.0, rel=1e-12)

    def test_stepped_reads_do_not_perturb_the_run(self):
        scenario = ScenarioConfig(
            workload="graph-bfs", strategy="canary", error_rate=0.15,
            num_functions=20, num_nodes=8, node_failure_count=1,
            network=get_network_preset("10gbe"),
        )
        straight = run_scenario(scenario, seed=0)
        platform = CanaryPlatform(scenario, seed=0)
        platform.submit_batch()
        seen: dict[str, float] = {}
        reads_in_flight = 0
        until = 0.0
        while platform.sim.pending:
            until += 0.7
            platform.run(until=until)
            reads_in_flight += platform.network.active_flow_count > 0
            for usage in collect_link_usage(platform.network, platform.sim.now):
                assert usage.bytes_total >= seen.get(usage.name, 0.0)
                seen[usage.name] = usage.bytes_total
        assert reads_in_flight > 10
        assert platform.summary() == straight

    def test_stats_and_timeline(self):
        sim, net = make_fabric()
        net.transfer("node-00", "node-01", 100.0, on_complete=lambda: None)
        sim.run()
        stats = collect_network_stats(net, sim.now)
        assert stats.flows_completed == 1
        assert stats.bytes_total == pytest.approx(100.0)
        assert stats.peak_link_utilization == pytest.approx(1.0)
        assert collect_network_stats(None, sim.now) is None

class TestScenarioIntegration:
    SCENARIO = ScenarioConfig(
        workload="graph-bfs",
        strategy="canary",
        error_rate=0.15,
        num_functions=40,
        network=TEN_GBE,
    )

    def test_network_disabled_by_default(self):
        scenario = ScenarioConfig(workload="graph-bfs")
        assert scenario.network is None
        summary = run_scenario(scenario.with_(num_functions=5), seed=0)
        assert summary.network_flows == 0
        assert summary.network_bytes == 0.0

    def test_enabled_run_reports_traffic(self):
        summary = run_scenario(self.SCENARIO, seed=0)
        assert summary.all_completed
        assert summary.network_flows > 0
        assert summary.network_bytes > 0
        assert summary.network_peak_utilization > 0

    def test_same_seed_bitwise_stable_with_network(self):
        a = run_scenario(self.SCENARIO, seed=3)
        b = run_scenario(self.SCENARIO, seed=3)
        assert a == b

    def test_parallel_matches_serial_with_network(self):
        cells = [(self.SCENARIO, seed) for seed in range(3)]
        assert run_cells(cells, jobs=2) == run_cells(cells, jobs=1)

    def test_contention_slows_the_run_down(self):
        contended = run_scenario(self.SCENARIO, seed=1)
        uncontended = run_scenario(
            self.SCENARIO.with_(network=None), seed=1
        )
        assert contended.makespan_s > uncontended.makespan_s
        assert contended.network_contention_s > 0

    def test_node_failure_with_network_completes(self):
        scenario = self.SCENARIO.with_(
            num_functions=20, node_failure_count=1
        )
        summary = run_scenario(scenario, seed=0)
        assert summary.all_completed
        assert summary.failures > 0


def test_share_levels_stay_consistent_under_churn():
    """Randomized churn on a live fabric: after every step each active
    flow sits in one live level of its links' group, each level's size and
    per-link counts match its members, no flow crosses the bottleneck of
    an earlier level of its group, and every level has a live timer."""
    sim = Simulator(seed=0)
    cluster = Cluster(12, topology=Topology(num_racks=3))
    net = FlowNetwork(
        sim,
        cluster=cluster,
        tiers=TierRegistry(),
        config=get_network_preset("10gbe"),
    )
    nodes = [node.node_id for node in cluster.nodes]
    rng = random.Random(5)
    handles = []
    busiest = 0
    for _ in range(400):
        op = rng.random()
        if op < 0.35:
            src, dst = rng.sample(nodes, 2)
            handles.append(net.transfer(
                src, dst, rng.uniform(1e6, 5e8), on_complete=lambda: None
            ))
        elif op < 0.5:
            handles.append(net.write_checkpoint(
                tier_name="kv", node_id=rng.choice(nodes),
                size_bytes=rng.uniform(1e6, 5e8), on_complete=lambda: None,
            ))
        elif op < 0.6:
            handles.append(net.image_pull(
                dest_node=rng.choice(nodes),
                size_bytes=rng.uniform(1e6, 5e8), on_complete=lambda: None,
            ))
        elif op < 0.75 and handles:
            handles.pop(rng.randrange(len(handles))).cancel()
        else:
            sim.run(until=sim.now + rng.uniform(0.0, 0.3))
        members: dict = {}
        for flow in net._active.values():
            level = flow.level
            assert level.group is not None and level in level.group.levels
            assert level.bottleneck in flow.links
            assert all(link.group is level.group for link in flow.links)
            members.setdefault(level, []).append(flow)
        for level, flows in members.items():
            assert level.size == len(flows)
            assert level.counts == Counter(
                link for flow in flows for link in flow.links
            )
            assert level.bottleneck.bottleneck_of is level
            assert level.timer is not None and level.timer.active
            later = level.group.levels[level.group.levels.index(level) + 1:]
            assert all(level.bottleneck not in other.counts for other in later)
        for link in net.links.values():
            assert (link.group is None) == (not link.members)
        busiest = max(busiest, len(net._active))
    assert busiest > 10
    sim.run()
    assert net.active_flow_count == 0
