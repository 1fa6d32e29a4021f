"""Strategy × gray-failure-archetype matrix → ``BENCH_chaos.json``.

Runs every recovery strategy against each chaos archetype (plus a pure
no-chaos baseline) with the heartbeat detector and backoff policy enabled,
and records completion, makespan, emergent detection latency,
false-suspicion counts, and degraded seconds.  The matrix is the tracked
artifact showing how each strategy tolerates *gray* failures — the regime
the paper's fail-stop evaluation never exercises.  The ``chaos.*`` rows of
``FEATURE_CLAIMS`` check that every cell completes, that the zombie
registers as a detection and that the calm baseline detects nothing.
"""

from __future__ import annotations

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.detection import BackoffPolicy, DetectionConfig
from repro.faults.chaos import ChaosConfig, TierBrownout
from repro.workloads.profiles import get_workload

STRATEGIES = ("retry", "canary", "request-replication", "active-standby")
NUM_FUNCTIONS = 40
SEEDS = (42, 43, 44)

#: Archetype name -> ChaosConfig (None = pure baseline, no chaos objects).
ARCHETYPES: dict[str, ChaosConfig | None] = {
    "none": None,
    "straggler": ChaosConfig(
        stragglers=2,
        straggler_window=(5.0, 15.0),
        straggler_duration_s=8.0,
        straggler_slowdown=0.25,
    ),
    "zombie": ChaosConfig(
        zombies=1, zombie_window=(8.0, 9.0), zombie_kill_after_s=45.0
    ),
    "partition": ChaosConfig(
        partitions=1, partition_window=(8.0, 9.0), partition_duration_s=2.0
    ),
    "kv-brownout": ChaosConfig(
        tier_brownouts=(
            TierBrownout(
                tier="kv", start_s=10.0, duration_s=8.0, mode="refuse"
            ),
        )
    ),
}


def run_cell(strategy: str, chaos: ChaosConfig | None, seed: int):
    """One (strategy, archetype, seed) cell; detection/backoff ride along
    whenever chaos is injected."""
    kwargs = {}
    if chaos is not None:
        kwargs = dict(
            chaos=chaos,
            detection=DetectionConfig(),
            backoff=BackoffPolicy(),
        )
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=16, strategy=strategy, error_rate=0.15, **kwargs
        ),
        seed=seed,
    )
    platform.submit_job(
        JobRequest(
            workload=get_workload("graph-bfs"), num_functions=NUM_FUNCTIONS
        )
    )
    platform.run()
    return platform


def summarize_cells(strategy: str, archetype: str) -> dict:
    chaos = ARCHETYPES[archetype]
    rows = [run_cell(strategy, chaos, seed).summary() for seed in SEEDS]
    n = len(rows)
    return {
        "strategy": strategy,
        "archetype": archetype,
        "seeds": list(SEEDS),
        "completed": sum(r.completed for r in rows),
        "makespan_s": round(sum(r.makespan_s for r in rows) / n, 3),
        "mean_recovery_s": round(
            sum(r.mean_recovery_s for r in rows) / n, 3
        ),
        "detections": sum(r.detections for r in rows),
        "detection_latency_mean_s": round(
            sum(r.detection_latency_mean_s for r in rows) / n, 3
        ),
        "false_suspicions": sum(r.false_suspicions for r in rows),
        "degraded_s": round(sum(r.degraded_s for r in rows) / n, 3),
        "cost_total": round(sum(r.cost_total for r in rows) / n, 5),
    }


def run() -> dict:
    return {"matrix": [summarize_cells(strategy, archetype)
                       for strategy in STRATEGIES
                       for archetype in ARCHETYPES]}
