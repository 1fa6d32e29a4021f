"""Closed-form oracles for the max-min flow fabric.

Each test builds a small fabric by hand (exact rescheduling,
``reschedule_tolerance=0.0``) on a topology where max-min rates have a
closed form, and compares what the fabric computes with that form at
``rel=1e-9``.  The oracles are independent of the fabric's float
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
        reschedule_tolerance=0.0,
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
