"""Fig. 9 — replication strategies: dynamic (DR) vs aggressive (AR) vs
lenient (LR), on cost and execution time of the DL workload.

Paper findings: AR has the lowest execution time at the highest cost; LR is
slightly cheaper than DR but its execution time grows fastest with the
error rate; DR saves 25 % vs AR and 2 % vs LR in dollar cost on average.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ERROR_RATE_SWEEP, ScenarioConfig
from repro.experiments.parallel import sweep_table
from repro.experiments.report import FigureResult, pct_reduction

REPLICATION_STRATEGIES = ("dynamic", "aggressive", "lenient")
WORKLOAD = "dl-training"


def run(
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    error_rates: Sequence[float] = ERROR_RATE_SWEEP,
    num_functions: int = 100,
    workload: str = WORKLOAD,
    jobs: Optional[int] = None,
    placement: Optional[str] = None,
) -> FigureResult:
    cells = [
        (
            {"replication": replication, "error_rate": error_rate},
            ScenarioConfig(
                workload=workload,
                strategy="canary",
                replication_strategy=replication,
                error_rate=error_rate,
                num_functions=num_functions,
            ),
        )
        for replication in REPLICATION_STRATEGIES
        for error_rate in error_rates
    ]
    result = sweep_table(
        "fig9",
        f"Replication strategies (AR/LR/DR), {workload}",
        cells,
        {"cost_usd": "cost_total", "cost_replica_usd": "cost_replica",
         "makespan_s": "makespan_s", "replicas": "replicas_launched"},
        seeds=seeds, jobs=jobs, placement=placement,
    )

    def mean_cost(replication: str) -> float:
        values = [
            result.value("cost_usd", replication=replication, error_rate=e)
            for e in error_rates
        ]
        return sum(values) / len(values)

    dr = mean_cost("dynamic")
    ar = mean_cost("aggressive")
    lr = mean_cost("lenient")
    result.notes.append(
        f"DR mean cost vs AR: {pct_reduction(dr, ar):.0f}% cheaper "
        f"(paper: 25%); vs LR: {pct_reduction(dr, lr):.1f}% "
        f"(paper: 2%, LR slightly cheaper at low rates)"
    )
    return result
