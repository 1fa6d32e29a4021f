"""Placement-policy tournament: policy × workload × chaos → ``BENCH_policy.json``.

Every placement policy in the S39 zoo runs the same open-loop traffic cell
against each chaos archetype (plus a no-chaos baseline) on a contended
10 GbE fabric, and the matrix records the four tournament scores: makespan,
p99 latency of *admitted* invocations, SLO violations, and dollar cost.
Per-(workload, archetype) winners and a win-count leaderboard are part of
the tracked artifact — the point is to see *which* policy wins *where*
(locality under no chaos, suspicion/contention once gray failures and
saturated links appear), not to crown one globally.  The ``policy.*`` rows
of ``FEATURE_CLAIMS`` check that no policy wedges the platform.
"""

from __future__ import annotations

from repro.detection import BackoffPolicy, DetectionConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_traffic
from repro.faults.chaos import ChaosConfig
from repro.network.config import get_network_preset
from repro.policies import PLACEMENT_POLICIES
from repro.sla.policy import SLAPolicy
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig

SEED = 0
DEADLINE = SLAPolicy(deadline_s=30.0)

POLICIES = tuple(PLACEMENT_POLICIES)
WORKLOADS = ("micro-python", "web-service")
DURATION_S = 60.0

#: Archetype name -> ChaosConfig (None = no chaos; detection/backoff ride
#: along whenever chaos is injected, as in BENCH_chaos).
ARCHETYPES: dict[str, ChaosConfig | None] = {
    "none": None,
    "straggler": ChaosConfig(
        stragglers=2,
        straggler_window=(5.0, 12.0),
        straggler_duration_s=8.0,
        straggler_slowdown=0.25,
    ),
    "zombie": ChaosConfig(
        zombies=1, zombie_window=(6.0, 7.0), zombie_kill_after_s=25.0
    ),
}


def cell_scenario(
    policy: str, workload: str, archetype: str
) -> ScenarioConfig:
    chaos = ARCHETYPES[archetype]
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
            arrivals=PoissonArrivals(rate_per_s=3.0),
            workloads=(workload,),
            sla=DEADLINE,
        ),
    )
    return ScenarioConfig(
        workload=workload,
        strategy="canary",
        error_rate=0.05,
        num_nodes=8,
        network=get_network_preset("10gbe"),
        traffic=TrafficConfig(tenants=tenants, duration_s=DURATION_S),
        placement=policy,
        **kwargs,
    )


def run_cell(policy: str, workload: str, archetype: str):
    return run_traffic(cell_scenario(policy, workload, archetype), seed=SEED)


def score_row(policy: str, workload: str, archetype: str, result) -> dict:
    summary = result.summary
    admitted = summary.invocations_offered - summary.invocations_shed
    return {
        "policy": policy,
        "workload": workload,
        "archetype": archetype,
        "offered": summary.invocations_offered,
        "admitted": admitted,
        "shed": summary.invocations_shed,
        "slo_violations": summary.slo_violations,
        "admitted_p99_s": round(summary.latency_p99_s, 6),
        "makespan_s": round(summary.makespan_s, 3),
        "cost_total": round(summary.cost_total, 5),
    }


def run() -> dict:
    matrix = [
        score_row(policy, workload, archetype,
                  run_cell(policy, workload, archetype))
        for policy in POLICIES
        for workload in WORKLOADS
        for archetype in ARCHETYPES
    ]
    # Per-(workload, archetype) winner on admitted p99 (makespan breaks
    # ties), plus a win-count leaderboard.
    winners = {
        f"{workload}/{archetype}": min(
            (r for r in matrix
             if r["workload"] == workload and r["archetype"] == archetype),
            key=lambda r: (r["admitted_p99_s"], r["makespan_s"]),
        )["policy"]
        for workload in WORKLOADS
        for archetype in ARCHETYPES
    }
    leaderboard = {p: 0 for p in POLICIES}
    for policy in winners.values():
        leaderboard[policy] += 1
    return {
        "seed": SEED,
        "duration_s": DURATION_S,
        "policies": list(POLICIES),
        "workloads": list(WORKLOADS),
        "archetypes": list(ARCHETYPES),
        "matrix": matrix,
        "winners": winners,
        "leaderboard": leaderboard,
    }
