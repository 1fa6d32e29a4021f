"""Strategy × gray-failure-archetype matrix → ``BENCH_chaos.json``.

Runs every recovery strategy against each chaos archetype (plus a pure
no-chaos baseline) with the heartbeat detector and backoff policy enabled,
and records completion, makespan, emergent detection latency,
false-suspicion counts, and degraded seconds.  The matrix is the tracked
artifact showing how each strategy tolerates *gray* failures — the regime
the paper's fail-stop evaluation never exercises.

Structural guards (machine-independent, asserted in smoke mode too):

* every cell completes all functions — graceful degradation, not loss;
* the ``none`` archetype is byte-identical to a platform built without
  any chaos/detection/backoff objects at all (the off-by-default pledge);
* a chaos cell re-run at the same seed is bit-identical (pure function of
  the seed).

``BENCH_SMOKE=1`` (CI) shrinks to two strategies, 20 functions, 1 seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.detection import BackoffPolicy, DetectionConfig
from repro.faults.chaos import ChaosConfig, TierBrownout
from repro.workloads.profiles import get_workload

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"
SMOKE = os.environ.get("BENCH_SMOKE", "").lower() in ("1", "true", "yes")

STRATEGIES = ("retry", "canary") if SMOKE else (
    "retry", "canary", "request-replication", "active-standby"
)
NUM_FUNCTIONS = 20 if SMOKE else 40
SEEDS = (42,) if SMOKE else (42, 43, 44)

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
    rows = []
    for seed in SEEDS:
        platform = run_cell(strategy, chaos, seed)
        summary = platform.summary()
        rows.append(summary)
        assert summary.completed == NUM_FUNCTIONS, (
            strategy, archetype, seed, summary.completed,
        )
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


def test_chaos_matrix():
    matrix = [
        summarize_cells(strategy, archetype)
        for strategy in STRATEGIES
        for archetype in ARCHETYPES
    ]

    # Off-by-default pledge: the "none" archetype must equal a platform
    # with no chaos/detection/backoff objects constructed at all.
    baseline = run_cell(STRATEGIES[0], None, SEEDS[0]).summary()
    plain = CanaryPlatform(
        ScenarioConfig(num_nodes=16, strategy=STRATEGIES[0], error_rate=0.15),
        seed=SEEDS[0],
    )
    plain.submit_job(
        JobRequest(
            workload=get_workload("graph-bfs"), num_functions=NUM_FUNCTIONS
        )
    )
    plain.run()
    assert asdict(baseline) == asdict(plain.summary())

    # Chaos cells are a pure function of the seed.
    chaos = ARCHETYPES["zombie"]
    first = run_cell(STRATEGIES[0], chaos, SEEDS[0]).summary()
    second = run_cell(STRATEGIES[0], chaos, SEEDS[0]).summary()
    assert asdict(first) == asdict(second)

    # Gray failures must actually register: the zombie archetype produces
    # at least one emergent detection per strategy.
    for row in matrix:
        if row["archetype"] == "zombie":
            assert row["detections"] >= len(SEEDS), row
        if row["archetype"] == "none":
            assert row["detections"] == 0, row
            assert row["degraded_s"] == 0.0, row

    record = {"smoke": SMOKE, "matrix": matrix}
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
