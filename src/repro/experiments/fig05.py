"""Fig. 5 — recovery time vs number of invocations at a fixed 15 % rate.

The paper scales invocations (hundreds) at a 15 % failure rate: replication
beats retry by up to 82 %, with Canary staying close to the ideal scenario.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ScenarioConfig
from repro.experiments.parallel import sweep_table
from repro.experiments.report import FigureResult, reductions_vs_retry
from repro.workloads.profiles import ALL_WORKLOADS

STRATEGIES = ("ideal", "retry", "canary")
INVOCATIONS = (100, 200, 400, 800, 1000)
ERROR_RATE = 0.15


def run(
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    invocations: Sequence[int] = INVOCATIONS,
    workloads: Optional[Sequence[str]] = None,
    error_rate: float = ERROR_RATE,
    jobs: Optional[int] = None,
    placement: Optional[str] = None,
) -> FigureResult:
    workloads = list(workloads or (w.name for w in ALL_WORKLOADS))
    cells = [
        (
            {"workload": workload, "strategy": strategy, "invocations": n},
            ScenarioConfig(
                workload=workload,
                strategy=strategy,
                error_rate=0.0 if strategy == "ideal" else error_rate,
                num_functions=n,
            ),
        )
        for workload in workloads
        for strategy in STRATEGIES
        for n in invocations
    ]
    result = sweep_table(
        "fig5",
        f"Recovery time vs invocations (failure rate {error_rate:.0%})",
        cells,
        {"mean_recovery_s": "mean_recovery_s",
         "total_recovery_s": "total_recovery_s", "makespan_s": "makespan_s"},
        seeds=seeds, jobs=jobs, placement=placement,
    )
    for workload in workloads:
        reductions = reductions_vs_retry(
            result, "mean_recovery_s", "invocations", invocations,
            workload=workload,
        )
        if reductions:
            result.notes.append(
                f"{workload}: Canary cuts mean recovery by "
                f"{sum(reductions) / len(reductions):.0f}% on average vs retry "
                f"(paper: 63-82%)"
            )
    return result
