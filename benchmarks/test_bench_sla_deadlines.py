"""SLA bench: deadline compliance under failures (§VII extension).

Compares deadline hit rates and replica spending of plain Canary, the
SLA-aware strategy, and retry when every function carries a deadline.
"""

from conftest import FAST_SEEDS, show

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.experiments.report import FigureResult
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


def run_bench():
    rows = []
    for strategy in ("retry", "canary", "canary-sla"):
        hits, costs, replica_costs = [], [], []
        for seed in FAST_SEEDS:
            rate, summary = run_one(strategy, seed)
            hits.append(rate)
            costs.append(summary.cost_total)
            replica_costs.append(summary.cost_replica)
        n = len(FAST_SEEDS)
        rows.append(
            {
                "strategy": strategy,
                "deadline_hit_rate": sum(hits) / n,
                "cost_usd": sum(costs) / n,
                "replica_usd": sum(replica_costs) / n,
            }
        )
    return FigureResult(
        figure="sla-deadlines",
        title=f"Deadline compliance ({DEADLINE_S:.0f}s deadline, "
        f"{ERROR_RATE:.0%} errors)",
        columns=("strategy", "deadline_hit_rate", "cost_usd", "replica_usd"),
        rows=rows,
    )


def test_bench_sla_deadlines(benchmark):
    result = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    show(result)

    retry = result.series(strategy="retry")[0]
    canary = result.series(strategy="canary")[0]
    sla = result.series(strategy="canary-sla")[0]

    # Checkpoint+replica recovery rescues deadlines retry blows.
    assert canary["deadline_hit_rate"] > retry["deadline_hit_rate"]
    # SLA-awareness is at least as compliant as plain Canary.
    assert sla["deadline_hit_rate"] >= canary["deadline_hit_rate"] - 1e-9
    # Everyone completes; compliance separates the strategies.
    assert retry["deadline_hit_rate"] < 1.0
