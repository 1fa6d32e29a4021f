"""Fig. 5 — recovery time vs number of invocations at a fixed 15 % rate.

The paper scales invocations (hundreds) at a 15 % failure rate: replication
beats retry by up to 82 %, with Canary staying close to the ideal scenario.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ScenarioConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.report import FigureResult, pct_reduction
from repro.experiments.runner import mean_of
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
    grid = [
        (workload, strategy, n)
        for workload in workloads
        for strategy in STRATEGIES
        for n in invocations
    ]
    scenarios = [
        ScenarioConfig(
            workload=workload,
            strategy=strategy,
            error_rate=0.0 if strategy == "ideal" else error_rate,
            num_functions=n,
        )
        for workload, strategy, n in grid
    ]
    rows: list[dict] = []
    for (workload, strategy, n), summaries in zip(
        grid, run_sweep(
            scenarios, seeds, jobs=jobs, placement=placement
        )
    ):
        row = mean_of(summaries)
        rows.append(
            {
                "workload": workload,
                "strategy": strategy,
                "invocations": n,
                "mean_recovery_s": row["mean_recovery_s"],
                "total_recovery_s": row["total_recovery_s"],
                "makespan_s": row["makespan_s"],
            }
        )
    result = FigureResult(
        figure="fig5",
        title=f"Recovery time vs invocations (failure rate {error_rate:.0%})",
        columns=(
            "workload",
            "strategy",
            "invocations",
            "mean_recovery_s",
            "total_recovery_s",
            "makespan_s",
        ),
        rows=rows,
    )
    for workload in workloads:
        reductions = []
        for n in invocations:
            retry = result.value(
                "mean_recovery_s",
                workload=workload,
                strategy="retry",
                invocations=n,
            )
            canary = result.value(
                "mean_recovery_s",
                workload=workload,
                strategy="canary",
                invocations=n,
            )
            if retry > 0:
                reductions.append(pct_reduction(canary, retry))
        if reductions:
            result.notes.append(
                f"{workload}: Canary cuts mean recovery by "
                f"{sum(reductions) / len(reductions):.0f}% on average vs retry "
                f"(paper: 63-82%)"
            )
    return result
