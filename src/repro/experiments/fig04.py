"""Fig. 4 — impact of replicated runtimes on recovery time.

100 function invocations per workload, error rate swept 1–50 %.  The paper
reports: retry recovery grows ~linearly with the error rate while Canary
stays nearly flat, 76–81 % lower on average (up to 81 %).  We additionally
run the replication-only ablation to isolate the replicas' contribution.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ERROR_RATE_SWEEP, ScenarioConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.report import FigureResult, pct_reduction
from repro.experiments.runner import mean_of
from repro.workloads.profiles import ALL_WORKLOADS

STRATEGIES = ("ideal", "retry", "canary-replication-only", "canary")


def run(
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    error_rates: Sequence[float] = ERROR_RATE_SWEEP,
    workloads: Optional[Sequence[str]] = None,
    num_functions: int = 100,
    jobs: Optional[int] = None,
    placement: Optional[str] = None,
) -> FigureResult:
    workloads = list(workloads or (w.name for w in ALL_WORKLOADS))
    scenarios: list[ScenarioConfig] = []
    for workload in workloads:
        for strategy in STRATEGIES:
            rates = (0.0,) if strategy == "ideal" else error_rates
            for error_rate in rates:
                scenarios.append(
                    ScenarioConfig(
                        workload=workload,
                        strategy=strategy,
                        error_rate=error_rate,
                        num_functions=num_functions,
                    )
                )
    rows: list[dict] = []
    for scenario, summaries in zip(
        scenarios, run_sweep(
            scenarios, seeds, jobs=jobs, placement=placement
        )
    ):
        row = mean_of(summaries)
        rows.append(
            {
                "workload": scenario.workload,
                "strategy": scenario.strategy,
                "error_rate": scenario.error_rate,
                "mean_recovery_s": row["mean_recovery_s"],
                "total_recovery_s": row["total_recovery_s"],
                "makespan_s": row["makespan_s"],
                "failures": row["failures"],
            }
        )
    result = FigureResult(
        figure="fig4",
        title="Impact of replicated runtimes on recovery time "
        "(100 invocations, error rate sweep)",
        columns=(
            "workload",
            "strategy",
            "error_rate",
            "mean_recovery_s",
            "total_recovery_s",
            "failures",
        ),
        rows=rows,
    )
    for workload in workloads:
        reductions = []
        for error_rate in error_rates:
            retry = result.value(
                "mean_recovery_s",
                workload=workload,
                strategy="retry",
                error_rate=error_rate,
            )
            canary = result.value(
                "mean_recovery_s",
                workload=workload,
                strategy="canary",
                error_rate=error_rate,
            )
            if retry > 0:
                reductions.append(pct_reduction(canary, retry))
        if reductions:
            result.notes.append(
                f"{workload}: Canary cuts mean recovery by "
                f"{sum(reductions) / len(reductions):.0f}% on average vs retry "
                f"(paper: 76-81%)"
            )
    return result
