"""Ablation: network contention under bursty checkpoint traffic
→ ``BENCH_network.json``.

The legacy cost model charges every transfer ``latency + size/bandwidth``
as if the fabric were idle.  The flow-level model (``repro.network``)
shares link bandwidth max-min fairly, so an 800-function burst of
checkpoint writes, image pulls, and restores contends on the storage
service links and ToR uplinks.  This bench sweeps the fig. 11 scaling
axis with the fabric off vs the calibrated 10 GbE preset and records the
delta.  The ``network.*`` rows of ``FEATURE_CLAIMS`` check that contention
is real at every scale and stretches the 800-function burst.
"""

from __future__ import annotations

from conftest import FAST_SEEDS

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import mean_of, run_repeated
from repro.network.config import TEN_GBE

WORKLOAD = "graph-bfs"
ERROR_RATE = 0.15
INVOCATIONS = (200, 400, 800)


def node_failures_for(invocations: int) -> int:
    """Mirror fig. 11: at least one node failure, one more per 400 calls."""
    return max(1, invocations // 400)


def run_pair(invocations: int) -> dict:
    """One sweep point: identical scenario with the fabric off vs 10 GbE."""
    base = ScenarioConfig(
        workload=WORKLOAD,
        strategy="canary",
        error_rate=ERROR_RATE,
        num_functions=invocations,
        node_failure_count=node_failures_for(invocations),
    )
    off = run_repeated(base, FAST_SEEDS)
    net = run_repeated(base.with_(network=TEN_GBE), FAST_SEEDS)
    mean_off, mean_net = mean_of(off), mean_of(net)
    return {
        "invocations": invocations,
        "incomplete_runs": sum(not s.all_completed for s in off + net),
        "makespan_off_s": round(mean_off["makespan_s"], 3),
        "makespan_net_s": round(mean_net["makespan_s"], 3),
        "recovery_off_s": round(mean_off["mean_recovery_s"], 3),
        "recovery_net_s": round(mean_net["mean_recovery_s"], 3),
        "contention_s": round(
            sum(s.network_contention_s for s in net) / len(net), 3
        ),
        "peak_link_utilization": round(
            max(s.network_peak_utilization for s in net), 4
        ),
        "network_flows_off": sum(s.network_flows for s in off),
        "network_flows_min": min(s.network_flows for s in net),
        "network_flows": round(sum(s.network_flows for s in net) / len(net)),
        "network_gib": round(
            sum(s.network_bytes for s in net) / len(net) / 2**30, 2
        ),
    }


def run() -> dict:
    return {
        "workload": WORKLOAD,
        "error_rate": ERROR_RATE,
        "preset": "10gbe",
        "seeds": len(FAST_SEEDS),
        "rows": [run_pair(n) for n in INVOCATIONS],
    }
