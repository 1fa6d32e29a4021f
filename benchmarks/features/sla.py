"""SLA bench: deadline compliance under failures (§VII extension).

Compares deadline hit rates and replica spending of plain Canary, the
SLA-aware strategy, and retry when every function carries a deadline.
The ``sla.*`` rows of ``FEATURE_CLAIMS`` check the ordering.
"""

from conftest import FAST_SEEDS

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.sla.policy import SLAPolicy
from repro.workloads.profiles import get_workload

WORKLOAD = get_workload("graph-bfs")   # ~27s of work
DEADLINE_S = 55.0                      # tight: one failed recovery eats it
ERROR_RATE = 0.4
NUM_FUNCTIONS = 50


def hit_rate(job) -> float:
    hits = 0
    for execution in job.executions:
        if execution.latency is not None and execution.latency <= DEADLINE_S:
            hits += 1
    return hits / NUM_FUNCTIONS


def run_one(strategy: str, seed: int):
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=8,
            strategy=strategy,
            error_rate=ERROR_RATE,
            refailure_rate=0.0,
        ),
        seed=seed,
    )
    job = platform.submit_job(
        JobRequest(
            workload=WORKLOAD,
            num_functions=NUM_FUNCTIONS,
            sla=SLAPolicy(deadline_s=DEADLINE_S),
        )
    )
    platform.run()
    return hit_rate(job), platform.summary()


def run() -> dict:
    rows = []
    n = len(FAST_SEEDS)
    for strategy in ("retry", "canary", "canary-sla"):
        runs = [run_one(strategy, seed) for seed in FAST_SEEDS]
        rows.append({
            "strategy": strategy,
            "deadline_hit_rate": sum(rate for rate, _ in runs) / n,
            "cost_usd": sum(s.cost_total for _, s in runs) / n,
            "replica_usd": sum(s.cost_replica for _, s in runs) / n,
        })
    return {"deadline_s": DEADLINE_S, "error_rate": ERROR_RATE, "rows": rows}
