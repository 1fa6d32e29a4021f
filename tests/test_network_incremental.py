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
  fabric-heavy parallel-vs-serial ``run_cells`` byte-identity check;
* the one-level certificate, which re-shares a one-level group without
  a replay, is held bit for bit to a fabric that always replays, under
  seeded joins, leaves and capacity cuts, and pinned on a tie.
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


class ReplayOnlyFlowNetwork(FlowNetwork):
    """The fabric with the one-level certificate turned off: every
    re-share replays water-filling."""

    def _reshare(self, group, joiner, touched):
        self._replay(group, joiner, touched)


class CountingFlowNetwork(FlowNetwork):
    """The shipped fabric, counting the re-shares that replayed."""

    replays = 0

    def _replay(self, group, joiner, touched):
        self.replays += 1
        super()._replay(group, joiner, touched)


def _certified(net):
    """Re-shares the one-level certificate settled without a replay."""
    return net.level_reshares + net.waterfill_passes - net.replays


def _levels(net):
    """Every live level in flow order: its place in its group, bottleneck,
    share, clock, timer and members with their ``v_end``."""
    levels = {}
    for flow in sorted(net._active.values(), key=lambda f: f.seq):
        level = flow.level
        if level not in levels:
            timer = level.timer
            levels[level] = [
                level.group.levels.index(level),
                level.bottleneck.name,
                level.share,
                level.v,
                level.t,
                None if timer is None else (timer.time, timer.label),
                [],
            ]
        levels[level][-1].append((flow.flow_id, flow.v_end))
    return list(levels.values())


#: layout -> (fabric overrides, KV service link capacity, share of starts
#: that are image pulls, link -> capacities a cut draws from).
#: ``star``: KV writes from every node meet on one service link; NIC
#: capacities that tie or undercut its fair share come and go.
#: ``two-level``: KV writes (service-bound) and image pulls
#: (registry-bound) meet only on the core, which cuts can make a
#: bottleneck too.
LAYOUTS = {
    "star": (
        {"nic_bandwidth": 1000.0},
        300.0,
        0.0,
        {
            "svc-rx:kv": (150.0, 300.0, 600.0),
            "nic-tx:node-00": (50.0, 100.0, 150.0, 1000.0),
            "nic-tx:node-03": (75.0, 100.0, 300.0, 1000.0),
        },
    ),
    "two-level": (
        {"registry_bandwidth": 150.0},
        60.0,
        0.3,
        {
            "svc-rx:kv": (60.0, 120.0, 300.0),
            "svc-tx:registry": (75.0, 150.0),
            "core": (90.0, 180.0, 10000.0),
        },
    ),
}


def _drive(fabric, layout, seed, steps=240):
    """Seeded joins, leaves, capacity cuts and time advances; the level
    view after every step and every completion with its time."""
    overrides, kv_capacity, pulls, cuts = LAYOUTS[layout]
    sim, net, nodes = make_fabric(
        num_nodes=8, num_racks=2, fabric=fabric, **overrides
    )
    net.set_link_capacity("svc-rx:kv", kv_capacity)
    rng = random.Random(seed)
    handles = []
    done = []
    views = []

    def finish(key):
        return lambda: done.append((key, sim.now))

    for step in range(steps):
        op = rng.random()
        if op < 0.5 and rng.random() >= pulls:
            handles.append(net.write_checkpoint(
                tier_name="kv",
                node_id=rng.choice(nodes),
                size_bytes=rng.choice((100.0, 250.0, 600.0, 1500.0)),
                on_complete=finish(step),
            ))
        elif op < 0.5:
            handles.append(net.image_pull(
                dest_node=rng.choice(nodes),
                size_bytes=rng.choice((150.0, 300.0, 900.0)),
                on_complete=finish(step),
            ))
        elif op < 0.62 and handles:
            handles.pop(rng.randrange(len(handles))).cancel()
        elif op < 0.78:
            name = rng.choice(sorted(cuts))
            net.set_link_capacity(name, rng.choice(cuts[name]))
        else:
            sim.run(until=sim.now + rng.uniform(0.05, 2.0))
        views.append(_levels(net))
    sim.run()
    return views, done, net


class TestSingleLevelCertificate:
    """A group of one level is re-shared in place when no link undercuts
    its bottleneck's fair share; it must leave exactly what the replay
    leaves: the same levels, shares, clocks, timers and finish times."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certificate_matches_replay_bit_for_bit(self, layout, seed):
        views, done, net = _drive(CountingFlowNetwork, layout, seed)
        replay_views, replay_done, replay_net = _drive(
            ReplayOnlyFlowNetwork, layout, seed
        )
        for step, (view, replay_view) in enumerate(zip(views, replay_views)):
            assert view == replay_view, step
        assert done == replay_done
        assert len(done) > 40
        assert fabric_compute_stats(net) == fabric_compute_stats(replay_net)
        # Both kinds of re-share ran: certified in place and replayed.
        assert _certified(net) > 20
        assert net.replays > 20

    def test_joins_on_one_service_link_are_certified_in_place(self):
        # Six writers from distinct nodes share the 50 B/s service link,
        # which every NIC and uplink out-serves: after the first opens the
        # group, every join and leave is certified without a replay.
        sim, net, nodes = make_fabric(
            num_nodes=6, num_racks=1, fabric=CountingFlowNetwork
        )
        net.set_link_capacity("svc-rx:kv", 50.0)
        done = {}
        for index, node in enumerate(nodes):
            net.write_checkpoint(
                tier_name="kv", node_id=node, size_bytes=100.0 * (index + 1),
                on_complete=lambda n=node: done.__setitem__(n, sim.now),
            )
        sim.run()
        assert len(done) == 6
        assert net.replays == 1
        assert _certified(net) == 5 + 5  # five joins, five leaves
        assert net.waterfill_passes == 0

    def test_a_tie_keeps_the_bottleneck(self):
        # Three writers share a 300 B/s service link at 100 B/s.  Cutting
        # the first writer's NIC to 100 B/s ties it with the service link
        # and, being the first link of the group, it is the first minimal
        # one.  The replay's strict scan keeps the service link, so the
        # certificate must keep it too, without a replay; a cut below the
        # tie moves that writer to its NIC.
        sim, net, nodes = make_fabric(
            num_nodes=3, num_racks=1, fabric=CountingFlowNetwork,
            nic_bandwidth=1000.0,
        )
        net.set_link_capacity("svc-rx:kv", 300.0)
        writers = [
            net.write_checkpoint(
                tier_name="kv", node_id=node, size_bytes=1000.0,
                on_complete=lambda: None,
            )
            for node in nodes
        ]
        seen = {}

        def cut(capacity):
            replays = net.replays
            net.set_link_capacity("nic-tx:node-00", capacity)
            flow = writers[0]._flow
            group = flow.level.group
            seen[capacity] = (
                net.replays - replays,
                min(group.links, key=lambda link: link.fair).name,
                [(w._flow.level.bottleneck.name, w._flow.rate)
                 for w in writers],
            )

        sim.call_at(1.0, lambda: cut(100.0))
        sim.call_at(2.0, lambda: cut(60.0))
        sim.run()
        assert seen[100.0] == (
            0, "nic-tx:node-00", [("svc-rx:kv", 100.0)] * 3,
        )
        assert seen[60.0] == (
            1, "nic-tx:node-00",
            [("nic-tx:node-00", 60.0), ("svc-rx:kv", 120.0),
             ("svc-rx:kv", 120.0)],
        )
