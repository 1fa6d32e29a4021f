"""Fig. 8 — dollar cost and execution time of the DL workload.

IBM Cloud Functions pricing ($0.000017/GB-s).  Paper findings: cost grows
with the error rate for both scenarios; Canary is up to 12 % cheaper than
retry (gap widens with the error rate), costs +8 % on average over ideal,
and executes 43 % faster than retry on average.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ERROR_RATE_SWEEP, ScenarioConfig
from repro.experiments.parallel import sweep_table
from repro.experiments.report import FigureResult, pct_change, pct_reduction

STRATEGIES = ("ideal", "retry", "canary")
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
    keys = [
        {"strategy": strategy, "error_rate": error_rate}
        for strategy in STRATEGIES
        for error_rate in ((0.0,) if strategy == "ideal" else error_rates)
    ]
    result = sweep_table(
        "fig8",
        f"Cost and execution time, {workload}",
        [(key, ScenarioConfig(**key, workload=workload,
                              num_functions=num_functions))
         for key in keys],
        {"cost_usd": "cost_total", "cost_replica_usd": "cost_replica",
         "makespan_s": "makespan_s"},
        seeds=seeds, jobs=jobs, placement=placement,
    )
    ideal_cost = result.value("cost_usd", strategy="ideal", error_rate=0.0)
    cost_savings, time_savings, ideal_overheads = [], [], []
    for error_rate in error_rates:
        retry_cost = result.value("cost_usd", strategy="retry", error_rate=error_rate)
        canary_cost = result.value("cost_usd", strategy="canary", error_rate=error_rate)
        retry_t = result.value("makespan_s", strategy="retry", error_rate=error_rate)
        canary_t = result.value("makespan_s", strategy="canary", error_rate=error_rate)
        cost_savings.append(pct_reduction(canary_cost, retry_cost))
        time_savings.append(pct_reduction(canary_t, retry_t))
        ideal_overheads.append(pct_change(canary_cost, ideal_cost))
    result.notes.append(
        f"Canary cost vs retry: {max(cost_savings):.0f}% cheaper at best "
        f"(paper: up to 12%), {sum(cost_savings)/len(cost_savings):.0f}% on average"
    )
    result.notes.append(
        f"Canary cost overhead vs ideal: "
        f"{sum(ideal_overheads)/len(ideal_overheads):.0f}% on average (paper: +8%)"
    )
    result.notes.append(
        f"Canary execution time vs retry: "
        f"{sum(time_savings)/len(time_savings):.0f}% lower on average (paper: 43%)"
    )
    return result
