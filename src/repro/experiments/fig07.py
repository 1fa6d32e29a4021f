"""Fig. 7 — execution makespan of the DL workload (100 invocations).

The paper: retry diverges from the ideal execution time as the error rate
grows; Canary tracks the ideal closely (+14 % on average) and is up to 83 %
lower than retry at a 50 % failure rate.
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
        "fig7",
        f"Execution makespan, {workload} (100 invocations)",
        [(key, ScenarioConfig(**key, workload=workload,
                              num_functions=num_functions))
         for key in keys],
        {"makespan_s": "makespan_s", "total_recovery_s": "total_recovery_s",
         "rel_spread": "makespan_rel_spread"},
        seeds=seeds, jobs=jobs, placement=placement,
    )
    ideal = result.value("makespan_s", strategy="ideal", error_rate=0.0)
    overheads = []
    for error_rate in error_rates:
        canary = result.value(
            "makespan_s", strategy="canary", error_rate=error_rate
        )
        overheads.append(pct_change(canary, ideal))
    result.notes.append(
        f"Canary makespan overhead vs ideal: "
        f"{sum(overheads) / len(overheads):.1f}% on average "
        f"(paper: +14% average)"
    )
    worst = max(error_rates)
    retry_worst = result.value("makespan_s", strategy="retry", error_rate=worst)
    canary_worst = result.value("makespan_s", strategy="canary", error_rate=worst)
    result.notes.append(
        f"At {worst:.0%} error rate Canary's makespan is "
        f"{pct_reduction(canary_worst, retry_worst):.0f}% below retry "
        f"(paper: up to 83%)"
    )
    return result
