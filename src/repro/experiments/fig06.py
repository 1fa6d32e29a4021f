"""Fig. 6 — impact of checkpoints on recovery time.

Same setup as Fig. 4 (100 invocations, error sweep) but isolating the
checkpointing mechanism: the checkpoint-only ablation restores state into
cold containers, and full Canary combines restore with warm replicas.  The
paper reports 79–83 % average reductions (up to 83 %) and — the key
property — Canary's recovery time stays constant regardless of *when*
during the function the failure lands, whereas retry's grows with the
failure point.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ERROR_RATE_SWEEP, ScenarioConfig
from repro.experiments.parallel import sweep_table
from repro.experiments.report import FigureResult, reductions_vs_retry
from repro.workloads.profiles import ALL_WORKLOADS

STRATEGIES = ("retry", "canary-checkpoint-only", "canary")


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
        for error_rate in error_rates
    ]
    result = sweep_table(
        "fig6",
        "Impact of checkpoints on recovery time "
        "(100 invocations, error rate sweep)",
        [(key, ScenarioConfig(**key, num_functions=num_functions))
         for key in keys],
        {"mean_recovery_s": "mean_recovery_s",
         "total_recovery_s": "total_recovery_s",
         "checkpoints": "checkpoints_taken"},
        seeds=seeds, jobs=jobs, placement=placement,
    )
    for workload in workloads:
        reductions = reductions_vs_retry(
            result, "mean_recovery_s", "error_rate", error_rates,
            workload=workload,
        )
        canary_recoveries = [
            result.value("mean_recovery_s", workload=workload,
                         strategy="canary", error_rate=error_rate)
            for error_rate in error_rates
        ]
        if reductions:
            result.notes.append(
                f"{workload}: Canary cuts mean recovery by "
                f"{sum(reductions) / len(reductions):.0f}% on average vs retry "
                f"(paper: 79-83%)"
            )
        if canary_recoveries and min(canary_recoveries) > 0:
            result.notes.append(
                f"{workload}: Canary mean recovery spans "
                f"{min(canary_recoveries):.2f}-{max(canary_recoveries):.2f}s "
                f"across the sweep (near-constant, as in the paper)"
            )
    return result
