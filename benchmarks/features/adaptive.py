"""Adaptive-FT tournament: strategy × chaos archetype → ``BENCH_adaptive.json``.

The S40 question: does feedback-driven tuning (adaptive-canary) and
first-finisher cloning buy anything over the static strategies?  Every
strategy runs the same open-loop traffic cell against each gray-failure
archetype — stragglers, a zombie, a partition, a KV brownout — plus a lossy
edge-WAN cell (``edge-wan`` preset + WAN uplink flaps), and the matrix
records the tournament scores: makespan, p99 latency of *admitted*
invocations, SLO violations, and dollar cost.  The ``adaptive.*`` rows of
``FEATURE_CLAIMS`` check adaptive-canary's SLO parity with the best static
strategy in every cell and cloning's win on the straggler storm.
"""

from __future__ import annotations

from repro.adaptive import AdaptiveConfig
from repro.detection import BackoffPolicy, DetectionConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_traffic
from repro.faults.chaos import ChaosConfig
from repro.network.config import get_network_preset
from repro.sla.policy import SLAPolicy
from repro.strategies.cloning import CloningConfig
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig

SEED = 0
WORKLOAD = "micro-python"
DEADLINE = SLAPolicy(deadline_s=30.0)
DURATION_S = 60.0

#: Strategy label -> (RecoveryStrategyName value, adaptive?, cloning?).
STRATEGIES: dict[str, tuple[str, bool, bool]] = {
    "retry": ("retry", False, False),
    "canary": ("canary", False, False),
    "request-replication": ("request-replication", False, False),
    "active-standby": ("active-standby", False, False),
    "adaptive-canary": ("canary", True, False),
    "cloning": ("cloning", False, True),
}
STATIC = ("retry", "canary", "request-replication", "active-standby")

#: Archetype name -> (network preset, ChaosConfig | None).
ARCHETYPES: dict[str, tuple[str, ChaosConfig | None]] = {
    "none": ("10gbe", None),
    "straggler": (
        "10gbe",
        ChaosConfig(
            stragglers=2,
            straggler_window=(5.0, 12.0),
            straggler_duration_s=8.0,
            straggler_slowdown=0.25,
        ),
    ),
    "straggler-storm": (
        "10gbe",
        ChaosConfig(
            stragglers=4,
            straggler_window=(4.0, 20.0),
            straggler_duration_s=15.0,
            straggler_slowdown=0.15,
        ),
    ),
    "zombie": (
        "10gbe",
        ChaosConfig(
            zombies=1, zombie_window=(6.0, 7.0), zombie_kill_after_s=25.0
        ),
    ),
    "partition": (
        "10gbe",
        ChaosConfig(partitions=1, partition_window=(6.0, 8.0),
                    partition_duration_s=6.0),
    ),
    "brownout": (
        "10gbe",
        ChaosConfig(link_brownouts=2, link_brownout_window=(5.0, 15.0),
                    link_brownout_duration_s=6.0,
                    link_brownout_factor=0.2),
    ),
    "edge-wan": (
        "edge-wan",
        ChaosConfig(wan_flaps=3, wan_flap_window=(5.0, 15.0),
                    wan_flap_duration_s=4.0, wan_flap_factor=0.05),
    ),
}


def cell_scenario(label: str, archetype: str) -> ScenarioConfig:
    strategy, adaptive, cloning = STRATEGIES[label]
    network, chaos = ARCHETYPES[archetype]
    kwargs = {}
    if chaos is not None:
        kwargs = dict(
            chaos=chaos,
            detection=DetectionConfig(),
            backoff=BackoffPolicy(),
        )
    tenants = (
        Tenant(
            name="load",
            arrivals=PoissonArrivals(rate_per_s=1.5),
            workloads=(WORKLOAD,),
            sla=DEADLINE,
        ),
    )
    return ScenarioConfig(
        workload=WORKLOAD,
        strategy=strategy,
        error_rate=0.05,
        num_nodes=8,
        network=get_network_preset(network),
        traffic=TrafficConfig(tenants=tenants, duration_s=DURATION_S),
        adaptive=AdaptiveConfig() if adaptive else None,
        cloning=CloningConfig(clones=3) if cloning else None,
        **kwargs,
    )


def run_cell(label: str, archetype: str):
    return run_traffic(cell_scenario(label, archetype), seed=SEED)


def score_row(label: str, archetype: str, result) -> dict:
    summary = result.summary
    admitted = summary.invocations_offered - summary.invocations_shed
    return {
        "strategy": label,
        "archetype": archetype,
        "offered": summary.invocations_offered,
        "admitted": admitted,
        "shed": summary.invocations_shed,
        "slo_violations": summary.slo_violations,
        "admitted_p99_s": round(summary.latency_p99_s, 6),
        "makespan_s": round(summary.makespan_s, 3),
        "cost_total": round(summary.cost_total, 5),
        "adaptive_epochs": summary.adaptive_epochs,
        "adaptive_interval_changes": summary.adaptive_interval_changes,
        "adaptive_boost_changes": summary.adaptive_boost_changes,
        "adaptive_hint_changes": summary.adaptive_hint_changes,
    }


def tournament_key(row: dict) -> tuple:
    """Fewest SLO violations wins; admitted p99 breaks ties."""
    return row["slo_violations"], row["admitted_p99_s"]


def run() -> dict:
    matrix = [score_row(label, archetype, run_cell(label, archetype))
              for label in STRATEGIES for archetype in ARCHETYPES]
    winners = {
        archetype: min((r for r in matrix if r["archetype"] == archetype),
                       key=tournament_key)["strategy"]
        for archetype in ARCHETYPES
    }
    leaderboard = {label: 0 for label in STRATEGIES}
    for label in winners.values():
        leaderboard[label] += 1
    return {
        "seed": SEED,
        "workload": WORKLOAD,
        "duration_s": DURATION_S,
        "strategies": list(STRATEGIES),
        "archetypes": list(ARCHETYPES),
        "matrix": matrix,
        "winners": winners,
        "leaderboard": leaderboard,
    }
