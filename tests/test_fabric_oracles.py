"""Closed-form oracles for the max-min flow fabric.

Each test builds a small fabric by hand on a topology where max-min
rates have a closed form, and compares what the fabric computes with
that form at ``rel=1e-9``.  The oracles are independent of the fabric's float
operation order, so they hold across any change that keeps the model:
finish times, fair-share rates, and the per-link byte and busy counters.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.topology import Topology
from repro.network.config import NetworkModelConfig
from repro.network.fabric import FlowNetwork
from repro.sim.engine import Simulator
from repro.storage.tiers import TierRegistry

REL = 1e-9


def make_fabric(num_nodes=4, num_racks=4, **overrides):
    """A fabric whose NICs (100 B/s) are the bottleneck by default."""
    config = dict(
        nic_bandwidth=100.0,
        uplink_bandwidth=1000.0,
        core_bandwidth=10000.0,
        registry_bandwidth=1000.0,
        hop_latency_s=0.0,
    )
    config.update(overrides)
    sim = Simulator(seed=0)
    cluster = Cluster(num_nodes, topology=Topology(num_racks=num_racks))
    network = FlowNetwork(
        sim,
        cluster=cluster,
        tiers=TierRegistry(),
        config=NetworkModelConfig(**config),
    )
    return sim, network


def _start(sim, net, src, dst, size, done, key, **kwargs):
    return net.transfer(
        src, dst, size,
        on_complete=lambda: done.__setitem__(key, sim.now), **kwargs,
    )


@pytest.mark.parametrize(
    "racks, hop_latency, extra_latency, overrides, hops",
    [
        # Same rack: NIC-tx -> NIC-rx, the NIC is the bottleneck.
        (1, 0.25, 0.0, {}, 2),
        # Cross rack, five hops, plus a caller-supplied latency.
        (2, 0.1, 1.5, {}, 5),
        # Cross rack with a thin uplink as the bottleneck.
        (2, 0.05, 0.0, {"uplink_bandwidth": 40.0}, 5),
    ],
)
def test_uncontended_transfer_takes_latency_plus_size_over_bottleneck(
    racks, hop_latency, extra_latency, overrides, hops
):
    sim, net = make_fabric(
        num_nodes=2, num_racks=racks, hop_latency_s=hop_latency, **overrides
    )
    done: dict = {}
    _start(sim, net, "node-00", "node-01", 1000.0, done, "f",
           extra_latency_s=extra_latency)
    sim.run()
    bottleneck = min(100.0, overrides.get("uplink_bandwidth", 100.0))
    expected = extra_latency + hop_latency * hops + 1000.0 / bottleneck
    assert done["f"] == pytest.approx(expected, rel=REL)
    assert net.contention_delay_s == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("count", [2, 3, 5, 8])
def test_equal_flows_on_one_bottleneck_finish_together(count):
    # All flows leave node-00: its NIC-tx (100 B/s) is the one bottleneck.
    sim, net = make_fabric(
        num_nodes=count + 1, num_racks=count + 1, hop_latency_s=0.2
    )
    size = 250.0
    done: dict = {}
    for index in range(1, count + 1):
        _start(sim, net, "node-00", f"node-{index:02d}", size, done, index)
    sim.run()
    expected = 0.2 * 5 + count * size / 100.0
    assert sorted(done) == list(range(1, count + 1))
    for finished in done.values():
        assert finished == pytest.approx(expected, rel=REL)


def test_two_bottleneck_levels_get_max_min_rates():
    # f1: node-00 -> node-01 and f2: node-00 -> node-02 share node-00's
    # NIC-tx (100 B/s); f2 and f3: node-03 -> node-02 share node-02's
    # NIC-rx, cut to 60 B/s.  Max-min: the NIC-rx is the tighter level
    # (60/2 = 30 < 100/2), so f2 = f3 = 30, and f1 takes the 70 B/s left
    # on the NIC-tx.
    sim, net = make_fabric(num_nodes=4)
    net.set_link_capacity("nic-rx:node-02", 60.0)
    done: dict = {}
    handles = {
        "f1": _start(sim, net, "node-00", "node-01", 700.0, done, "f1"),
        "f2": _start(sim, net, "node-00", "node-02", 300.0, done, "f2"),
        "f3": _start(sim, net, "node-03", "node-02", 300.0, done, "f3"),
    }
    sim.run(until=1.0)
    rates = {name: handle._flow.rate for name, handle in handles.items()}
    assert rates == pytest.approx({"f1": 70.0, "f2": 30.0, "f3": 30.0},
                                  rel=REL)
    sim.run()
    # 700/70 = 300/30 = 10 s: all three end together.
    assert done == pytest.approx({"f1": 10.0, "f2": 10.0, "f3": 10.0},
                                 rel=REL)


@pytest.mark.parametrize(
    "joiner_size, first_end, joiner_end",
    [
        # The joiner outlives the first flow: f1 moves 400 B alone, then
        # its last 600 B at 50 B/s (ends at 16); the joiner has 400 B left
        # at 100 B/s.
        (1000.0, 16.0, 20.0),
        # The joiner leaves first: it moves its 200 B at 50 B/s (4 -> 8),
        # then f1 finishes its last 400 B alone at 100 B/s.
        (200.0, 12.0, 8.0),
    ],
)
def test_flow_joining_mid_transfer_gives_closed_form_finish(
    joiner_size, first_end, joiner_end
):
    sim, net = make_fabric(num_nodes=3)
    done: dict = {}
    _start(sim, net, "node-00", "node-01", 1000.0, done, "first")
    sim.call_at(
        4.0,
        lambda: _start(sim, net, "node-00", "node-02", joiner_size, done,
                       "joiner"),
    )
    sim.run()
    assert done["first"] == pytest.approx(first_end, rel=REL)
    assert done["joiner"] == pytest.approx(joiner_end, rel=REL)


def _churn(seed: int):
    """Random starts and cancels on a two-rack fabric.

    Returns the fabric, every flow and each flow's active interval
    (activation to completion or cancellation).
    """
    sim, net = make_fabric(num_nodes=6, num_racks=2, hop_latency_s=0.05)
    rng = random.Random(seed)
    nodes = [f"node-{index:02d}" for index in range(6)]
    flows = []
    intervals: dict[int, list[float]] = {}

    def start(src, dst, size):
        index = len(flows)
        handle = net.transfer(
            src, dst, size,
            on_complete=lambda: intervals[index].append(sim.now),
        )
        flows.append(handle)
        # Five hops (or two, same rack) of 0.05 s before bandwidth.
        hops = len(handle._flow.links)
        intervals[index] = [sim.now + 0.05 * hops]

    def cancel(index):
        if index < len(flows) and flows[index].active:
            if sim.now >= intervals[index][0]:
                intervals[index].append(sim.now)
            else:  # cancelled before it reached the fabric
                intervals[index].append(intervals[index][0])
            flows[index].cancel()

    for _ in range(60):
        src, dst = rng.sample(nodes, 2)
        sim.call_at(
            rng.uniform(0.0, 40.0),
            lambda s=src, d=dst, n=rng.uniform(50.0, 900.0): start(s, d, n),
        )
    for _ in range(15):
        sim.call_at(
            rng.uniform(0.0, 40.0), lambda v=rng.randrange(60): cancel(v)
        )
    sim.run()
    assert net.active_flow_count == 0
    assert net.flows_cancelled > 0
    return net, [handle._flow for handle in flows], intervals


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_link_bytes_equal_sum_of_flow_bytes(seed):
    net, flows, _ = _churn(seed)
    for link in net.links.values():
        moved = [
            flow.size_bytes - flow.remaining
            for flow in flows
            if link in flow.links
        ]
        assert link.bytes_total == pytest.approx(
            math.fsum(moved), rel=REL, abs=1e-9
        )
    assert any(link.bytes_total > 0 for link in net.links.values())


def _union_measure(spans: list[tuple[float, float]]) -> float:
    merged: list[list[float]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return math.fsum(hi - lo for lo, hi in merged)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_link_busy_time_is_union_of_flow_intervals(seed):
    net, flows, intervals = _churn(seed)
    for link in net.links.values():
        spans = [
            (intervals[index][0], intervals[index][1])
            for index, flow in enumerate(flows)
            if link in flow.links and intervals[index][1] > intervals[index][0]
        ]
        assert link.busy_s == pytest.approx(
            _union_measure(spans), rel=REL, abs=1e-9
        )
    assert any(link.busy_s > 0 for link in net.links.values())


def _kv_write(sim, net, node, size, done, key):
    return net.write_checkpoint(
        tier_name="kv", node_id=node, size_bytes=size,
        on_complete=lambda: done.__setitem__(key, sim.now),
    )


def test_bottleneck_moves_from_nic_to_service_link_and_back():
    # A writes 1000 B to the KV tier from node-00: after the tier's write
    # latency L it is bound by its NIC (100 B/s).  Two sharers from other
    # nodes reach the cut service link (150 B/s) at 2 s: three writers
    # share it at 50 B/s, so A becomes service-bound.  The sharers' 100 B
    # end 2 s later and A is NIC-bound again.
    sim, net = make_fabric(num_nodes=3)
    net.set_link_capacity("svc-rx:kv", 150.0)
    latency = net.tiers.get("kv").write_latency_s
    done: dict = {}
    handle = _kv_write(sim, net, "node-00", 1000.0, done, "a")
    sim.call_at(2.0 - latency, lambda: [
        _kv_write(sim, net, node, 100.0, done, node)
        for node in ("node-01", "node-02")
    ])
    rates = {}
    for when in (1.0, 3.0, 6.0):
        sim.call_at(when, lambda w=when: rates.__setitem__(
            w, handle._flow.rate))
    sim.run()
    assert rates == pytest.approx({1.0: 100.0, 3.0: 50.0, 6.0: 100.0},
                                  rel=REL)
    # 200 B alone, 100 B shared, then 700 B alone.
    assert done["node-01"] == pytest.approx(4.0, rel=REL)
    assert done["node-02"] == pytest.approx(4.0, rel=REL)
    assert done["a"] == pytest.approx(11.0 + latency, rel=REL)


def test_capacity_cut_and_restore_on_a_loaded_link():
    # Two flows share node-00's NIC-tx at 50 B/s each.  At 2 s the NIC is
    # cut to 40 B/s (20 each); at 5 s it is restored to 100 B/s.
    sim, net = make_fabric(num_nodes=3)
    done: dict = {}
    _start(sim, net, "node-00", "node-01", 300.0, done, "short")
    _start(sim, net, "node-00", "node-02", 500.0, done, "long")
    previous: list = []
    sim.call_at(2.0, lambda: previous.append(
        net.set_link_capacity("nic-tx:node-00", 40.0)))
    sim.call_at(5.0, lambda: previous.append(
        net.set_link_capacity("nic-tx:node-00", 100.0)))
    sim.run()
    assert previous == [100.0, 40.0]
    # By 5 s each moved 100 + 60 B.  The short flow's last 140 B take
    # 2.8 s at 50 B/s; the long flow's last 200 B then run alone.
    assert done["short"] == pytest.approx(7.8, rel=REL)
    assert done["long"] == pytest.approx(9.8, rel=REL)
    nic = net.links["nic-tx:node-00"]
    assert nic.bytes_total == pytest.approx(800.0, rel=REL)
    assert nic.busy_s == pytest.approx(9.8, rel=REL)


def test_join_on_one_level_leaves_a_core_coupled_level_unchanged():
    # KV writes (bound by a 60 B/s service link) and image pulls (bound
    # by a 150 B/s registry) meet only on the core, which is never a
    # bottleneck.  A third pull joining at 2 s re-shares the pulls; the
    # writes keep 30 B/s and their closed-form finish times.
    sim, net = make_fabric(num_nodes=4, registry_bandwidth=150.0)
    net.set_link_capacity("svc-rx:kv", 60.0)
    latency = net.tiers.get("kv").write_latency_s
    done: dict = {}
    writes = [
        _kv_write(sim, net, node, 300.0, done, f"w-{node}")
        for node in ("node-00", "node-01")
    ]

    def pull(node, size):
        net.image_pull(
            dest_node=node, size_bytes=size,
            on_complete=lambda: done.__setitem__(f"p-{node}", sim.now),
        )

    pull("node-02", 600.0)
    pull("node-03", 600.0)
    sim.call_at(2.0, lambda: pull("node-01", 200.0))
    rates = {}
    for when in (1.0, 3.0):
        sim.call_at(when, lambda w=when: rates.__setitem__(
            w, [handle._flow.rate for handle in writes]))
    sim.run()
    assert rates == pytest.approx({1.0: [30.0, 30.0], 3.0: [30.0, 30.0]},
                                  rel=REL)
    assert done["w-node-00"] == pytest.approx(latency + 10.0, rel=REL)
    assert done["w-node-01"] == pytest.approx(latency + 10.0, rel=REL)
    # Pulls: 150 B each by 2 s at 75 B/s; three at 50 B/s until the
    # joiner's 200 B end at 6 s; the last 250 B each at 75 B/s.
    assert done["p-node-01"] == pytest.approx(6.0, rel=REL)
    assert done["p-node-02"] == pytest.approx(6.0 + 250.0 / 75.0, rel=REL)
    assert done["p-node-03"] == pytest.approx(6.0 + 250.0 / 75.0, rel=REL)


@pytest.mark.parametrize("count", [2, 4, 7])
def test_equal_flows_joining_together_finish_at_one_instant_in_order(count):
    # The flows join node-00's NIC-tx while it is cut to 10 B/s and run
    # at 100 B/s from its restore at 1 s: each moves 10/count B, then the
    # rest at 100/count B/s, so all end at 3 count + 0.9 s.
    sim, net = make_fabric(num_nodes=count + 1, num_racks=1)
    net.set_link_capacity("nic-tx:node-00", 10.0)
    order: list = []
    for index in range(1, count + 1):
        net.transfer(
            "node-00", f"node-{index:02d}", 300.0,
            on_complete=lambda i=index: order.append((i, sim.now)),
        )
    sim.call_at(1.0, lambda: net.set_link_capacity("nic-tx:node-00", 100.0))
    sim.run()
    assert [index for index, _ in order] == list(range(1, count + 1))
    for _, finished in order:
        assert finished == pytest.approx(3.0 * count + 0.9, rel=REL)


def test_long_lived_level_serves_back_to_back_flows_at_closed_form_times():
    # A 10 GbE NIC shared by one long flow and a chain of 500 flows of
    # 25 GB, each started when the one before it ends: every chain flow
    # runs 40 s at half the NIC, so flow k ends at 40 k s.  The shared
    # level lives 2e4 s and its virtual clock passes 1.25e13 bytes.
    nic = 1.25e9
    chain, size = 500, 2.5e10
    sim, net = make_fabric(num_nodes=3, num_racks=1, nic_bandwidth=nic)
    done: dict = {}
    tail = nic * 10.0

    def start_chain(k):
        def finished():
            done[k] = sim.now
            if k < chain:
                start_chain(k + 1)
        net.transfer("node-00", "node-01", size, on_complete=finished)

    start_chain(1)
    _start(sim, net, "node-00", "node-02", chain * size + tail, done, "long")
    sim.run()
    assert len(done) == chain + 1
    for k in range(1, chain + 1):
        assert done[k] == pytest.approx(40.0 * k, rel=REL)
    assert done["long"] == pytest.approx(40.0 * chain + 10.0, rel=REL)


def test_joiner_moves_a_sharer_to_a_new_bottleneck():
    # g and h leave node-03, whose NIC-tx is widened to 150 B/s: 75 B/s
    # each.  f is alone on node-00's NIC-tx.  At 1 s, j joins node-00 ->
    # node-05: it halves f and takes 50 B/s of node-05's NIC-rx, which
    # leaves g 50 B/s there, so g moves to that bottleneck and h gets the
    # 100 B/s left on node-03's NIC-tx.
    sim, net = make_fabric(num_nodes=7, num_racks=1)
    net.set_link_capacity("nic-tx:node-03", 150.0)
    done: dict = {}
    handles = {
        "f": _start(sim, net, "node-00", "node-01", 1000.0, done, "f"),
        "g": _start(sim, net, "node-03", "node-05", 1000.0, done, "g"),
        "h": _start(sim, net, "node-03", "node-06", 1000.0, done, "h"),
    }
    sim.call_at(1.0, lambda: handles.__setitem__(
        "j", _start(sim, net, "node-00", "node-05", 1000.0, done, "j")))
    rates = {}
    sim.call_at(2.0, lambda: rates.update(
        {name: handle._flow.rate for name, handle in handles.items()}))
    sim.run()
    assert rates == pytest.approx(
        {"f": 50.0, "g": 50.0, "h": 100.0, "j": 50.0}, rel=REL
    )
    # h: 75 B by 1 s, then 100 B/s until its 1000 B end at 10.25 s.
    assert done["h"] == pytest.approx(10.25, rel=REL)
