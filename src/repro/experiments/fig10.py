"""Fig. 10 — Canary vs request replication (RR) and active-standby (AS).

Paper findings: RR and AS cost up to 2.7× / 2.8× more than Canary; AS
execution time is up to 34 % higher than Canary (no checkpoints — restarts
from the beginning on its standby); RR's execution time is close to
Canary's (Canary ≈ +5 % on average, paying for checkpoint restore) but both
RR and AS degrade as the error rate increases.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ERROR_RATE_SWEEP, ScenarioConfig
from repro.experiments.parallel import sweep_table
from repro.experiments.report import FigureResult, pct_change

STRATEGIES = ("canary", "request-replication", "active-standby")
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
        for error_rate in error_rates
    ]
    result = sweep_table(
        "fig10",
        f"Canary vs RR and AS, {workload}",
        [(key, ScenarioConfig(**key, workload=workload,
                              num_functions=num_functions))
         for key in keys],
        {"cost_usd": "cost_total", "makespan_s": "makespan_s"},
        seeds=seeds, jobs=jobs, placement=placement,
    )
    rr_ratio, as_ratio, as_time = [], [], []
    for error_rate in error_rates:
        canary_cost = result.value("cost_usd", strategy="canary", error_rate=error_rate)
        rr_cost = result.value(
            "cost_usd", strategy="request-replication", error_rate=error_rate
        )
        as_cost = result.value(
            "cost_usd", strategy="active-standby", error_rate=error_rate
        )
        canary_t = result.value("makespan_s", strategy="canary", error_rate=error_rate)
        as_t = result.value(
            "makespan_s", strategy="active-standby", error_rate=error_rate
        )
        rr_ratio.append(rr_cost / canary_cost)
        as_ratio.append(as_cost / canary_cost)
        as_time.append(pct_change(as_t, canary_t))
    result.notes.append(
        f"RR cost up to {max(rr_ratio):.1f}x Canary (paper: up to 2.7x); "
        f"AS up to {max(as_ratio):.1f}x (paper: up to 2.8x)"
    )
    result.notes.append(
        f"AS execution time up to +{max(as_time):.0f}% vs Canary "
        f"(paper: up to +34%)"
    )
    return result
