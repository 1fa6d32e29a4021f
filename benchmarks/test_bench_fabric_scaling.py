"""Fabric-scaling microbenchmark: share-level max-min under churn.

Sustains N concurrent flows over a seeded churn loop (every completion
starts a replacement) and measures how many fabric events (flow starts +
completions) per wall-clock second the :class:`FlowNetwork` processes at
100 / 1 000 / 5 000 concurrent flows, together with how much per-flow
water-filling work it actually performed.  The numbers land in
``BENCH_fabric.json`` at the repo root.

Two traffic patterns bound the design space:

* ``rack-local`` — node-to-node transfers inside a rack (replication
  state copies between rack neighbours).  Contention components stay
  rack-sized, so even a full water-fill touches a small fraction of the
  active flows.
* ``cross-rack`` — every flow traverses the shared core, welding all
  flows into one giant contention component.  Here only share levels
  save work: an event whose flows keep their bottlenecks re-shares the
  component's levels without touching its flows.  The 5 000-flow level
  is skipped for this pattern: ramping up one 5 000-flow component was
  quadratic under per-flow water-filling, and the rows stay comparable
  across commits.

``scoped_fraction`` is the number of flows the fabric moved between
share levels vs. the flow assignments of a global water-fill per event,
and ``level_fraction`` the share of events that kept every level: the
machine-independent record of what scoping and levels save.  The global recompute
itself lives only in the tests, as the oracle
(``tests/test_network_incremental.py``).

Smoke mode (``BENCH_SMOKE=1``, used by CI) shrinks levels and event
counts and asserts a machine-independent regression guard: the scoped
fraction must stay low for rack-local traffic and cross-rack churn must
take the level path on at least 90% of events, plus a conservative
events/sec floor.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.cluster.cluster import Cluster
from repro.cluster.topology import Topology
from repro.metrics.network import fabric_compute_stats
from repro.network.config import NetworkModelConfig
from repro.network.fabric import FlowNetwork
from repro.sim.engine import Simulator
from repro.storage.tiers import TierRegistry

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fabric.json"
SMOKE = os.environ.get("BENCH_SMOKE", "").lower() in ("1", "true", "yes")

#: (concurrent flows, nodes, racks, measured churn completions).
FULL_LEVELS = {
    "rack-local": [
        (100, 32, 8, 2000),
        (1000, 128, 16, 1500),
        (5000, 128, 16, 600),
    ],
    "cross-rack": [
        (100, 32, 8, 2000),
        (1000, 128, 16, 600),
    ],
}
SMOKE_LEVELS = {
    "rack-local": [
        (100, 32, 8, 300),
        (1000, 64, 8, 400),
    ],
    "cross-rack": [
        (100, 32, 8, 300),
    ],
}


def churn_window(
    *,
    n_flows: int,
    nodes: int,
    racks: int,
    churn_events: int,
    pattern: str,
) -> dict:
    """Wall-clock a steady-state churn window at *n_flows* concurrency.

    Returns events/sec, wall seconds, and scoped-recompute accounting
    for the window.
    """
    sim = Simulator(seed=0)
    cluster = Cluster(nodes, topology=Topology(num_racks=racks))
    net = FlowNetwork(
        sim,
        cluster=cluster,
        tiers=TierRegistry(),
        config=NetworkModelConfig(hop_latency_s=0.0),
    )
    rng = sim.rng.stream("bench-fabric")
    by_rack: dict[str, list[str]] = {}
    for node in cluster.nodes:
        by_rack.setdefault(node.rack, []).append(node.node_id)
    rack_nodes = list(by_rack.values())

    state = {
        "completed": 0,
        "measuring": False,
        "draining": False,
        "t0": 0.0,
        "t1": 0.0,
        "window_events": 0,
        "wf_flows_0": 0,
        "wf_full_0": 0,
        "wf_flows_1": 0,
        "wf_full_1": 0,
        "reshares_0": 0,
        "passes_0": 0,
        "reshares_1": 0,
        "passes_1": 0,
    }

    def pick_pair() -> tuple[str, str]:
        if pattern == "rack-local":
            members = rack_nodes[int(rng.uniform(0, len(rack_nodes)))]
            i = int(rng.uniform(0, len(members)))
            j = int(rng.uniform(0, len(members) - 1))
            if j >= i:
                j += 1
            return members[i], members[j]
        r1 = int(rng.uniform(0, len(rack_nodes)))
        r2 = int(rng.uniform(0, len(rack_nodes) - 1))
        if r2 >= r1:
            r2 += 1
        src_rack, dst_rack = rack_nodes[r1], rack_nodes[r2]
        return (
            src_rack[int(rng.uniform(0, len(src_rack)))],
            dst_rack[int(rng.uniform(0, len(dst_rack)))],
        )

    def start() -> None:
        src, dst = pick_pair()
        net.transfer(
            src, dst, float(rng.uniform(1e6, 50e6)), on_complete=done
        )
        if state["measuring"]:
            state["window_events"] += 1

    def done() -> None:
        state["completed"] += 1
        if state["draining"]:
            return
        if state["measuring"]:
            state["window_events"] += 1
            if state["completed"] >= churn_events:
                state["t1"] = time.perf_counter()
                state["measuring"] = False
                state["draining"] = True
                state["wf_flows_1"] = net.waterfill_flows
                state["wf_full_1"] = net.waterfill_flows_full
                state["reshares_1"] = net.level_reshares
                state["passes_1"] = net.waterfill_passes
                return
        # Closed loop: every completion starts a replacement, keeping
        # exactly n_flows in flight through ramp and window.
        start()

    for _ in range(n_flows):
        sim.call_at(float(rng.uniform(0.0, 1.0)), start)

    def begin_window() -> None:
        state["measuring"] = True
        state["completed"] = 0
        state["wf_flows_0"] = net.waterfill_flows
        state["wf_full_0"] = net.waterfill_flows_full
        state["reshares_0"] = net.level_reshares
        state["passes_0"] = net.waterfill_passes
        state["t0"] = time.perf_counter()

    sim.call_at(1.0, begin_window)
    sim.run()
    assert state["t1"] > 0.0, "churn window never completed"
    stats = fabric_compute_stats(net)
    assert stats.peak_active_flows >= n_flows, stats

    wall = state["t1"] - state["t0"]
    window_flows = state["wf_flows_1"] - state["wf_flows_0"]
    window_full = state["wf_full_1"] - state["wf_full_0"]
    window_reshares = state["reshares_1"] - state["reshares_0"]
    window_passes = state["passes_1"] - state["passes_0"]
    return {
        "churn_events": state["window_events"],
        "wall_s": round(wall, 4),
        "events_per_sec": round(state["window_events"] / wall),
        "scoped_fraction": round(
            window_flows / window_full if window_full else 0.0, 4
        ),
        "level_fraction": round(
            window_reshares / (window_reshares + window_passes)
            if window_reshares + window_passes else 0.0, 4
        ),
        "peak_active_flows": stats.peak_active_flows,
    }


def test_bench_fabric_scaling():
    levels = SMOKE_LEVELS if SMOKE else FULL_LEVELS
    patterns: dict[str, list[dict]] = {}
    for pattern, rows in levels.items():
        patterns[pattern] = [
            {
                "flows": n_flows,
                "nodes": nodes,
                "racks": racks,
                **churn_window(
                    n_flows=n_flows, nodes=nodes, racks=racks,
                    churn_events=events, pattern=pattern,
                ),
            }
            for n_flows, nodes, racks, events in rows
        ]

    record = {"smoke": SMOKE, "patterns": patterns}
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))

    # Water-fills must stay scoped to components for decomposable
    # traffic, and core-coupled churn must mostly keep its bottlenecks and
    # take the level path.  Both are structural properties of the event
    # trace, so they hold on any machine at any load.
    rack_rows = patterns["rack-local"]
    for row in rack_rows:
        if row["flows"] >= 1000:
            assert row["scoped_fraction"] < 0.5, row
    for row in patterns["cross-rack"]:
        assert row["level_fraction"] >= 0.9, row

    # Conservative wall-clock floor (the CI smoke guard): generous
    # headroom for slow shared runners — the machine-independent guards
    # above are what catch a revert to global recomputation.
    row_1k = next(r for r in rack_rows if r["flows"] == 1000)
    assert row_1k["events_per_sec"] >= 250, row_1k
