"""Fig. 4 — impact of replicated runtimes on recovery time.

100 function invocations per workload, error rate swept 1–50 %.  The paper
reports: retry recovery grows ~linearly with the error rate while Canary
stays nearly flat, 76–81 % lower on average (up to 81 %).  We additionally
run the replication-only ablation to isolate the replicas' contribution.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ERROR_RATE_SWEEP, ScenarioConfig
from repro.experiments.parallel import sweep_table
from repro.experiments.report import FigureResult, reductions_vs_retry
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
    keys = [
        {"workload": workload, "strategy": strategy, "error_rate": error_rate}
        for workload in workloads
        for strategy in STRATEGIES
        for error_rate in ((0.0,) if strategy == "ideal" else error_rates)
    ]
    result = sweep_table(
        "fig4",
        "Impact of replicated runtimes on recovery time "
        "(100 invocations, error rate sweep)",
        [(key, ScenarioConfig(**key, num_functions=num_functions))
         for key in keys],
        {"mean_recovery_s": "mean_recovery_s",
         "total_recovery_s": "total_recovery_s", "failures": "failures"},
        seeds=seeds, jobs=jobs, placement=placement,
    )
    for workload in workloads:
        reductions = reductions_vs_retry(
            result, "mean_recovery_s", "error_rate", error_rates,
            workload=workload,
        )
        if reductions:
            result.notes.append(
                f"{workload}: Canary cuts mean recovery by "
                f"{sum(reductions) / len(reductions):.0f}% on average vs retry "
                f"(paper: 76-81%)"
            )
    return result
