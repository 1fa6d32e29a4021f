"""Fig. 4 companion: the per-*runtime* view.

Fig. 4's caption measures "100 invocations of Python, Node.js, and Java
container runtimes".  Retry's recovery cost is dominated by the cold start
it repeats, so it inherits the runtime ordering (java » python > nodejs);
Canary's replica adoption makes recovery nearly runtime-independent.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ScenarioConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.report import FigureResult, pct_reduction
from repro.experiments.runner import mean_of
from repro.workloads.profiles import MICRO_WORKLOADS

STRATEGIES = ("retry", "canary")
ERROR_RATE = 0.15


def run(
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    error_rate: float = ERROR_RATE,
    num_functions: int = 100,
    jobs: Optional[int] = None,
    placement: Optional[str] = None,
) -> FigureResult:
    grid = [
        (profile, strategy)
        for profile in MICRO_WORKLOADS
        for strategy in STRATEGIES
    ]
    scenarios = [
        ScenarioConfig(
            workload=profile.name,
            strategy=strategy,
            error_rate=error_rate,
            num_functions=num_functions,
        )
        for profile, strategy in grid
    ]
    rows: list[dict] = []
    for (profile, strategy), summaries in zip(
        grid, run_sweep(
            scenarios, seeds, jobs=jobs, placement=placement
        )
    ):
        row = mean_of(summaries)
        rows.append(
            {
                "runtime": profile.runtime.value,
                "strategy": strategy,
                "mean_recovery_s": row["mean_recovery_s"],
                "total_recovery_s": row["total_recovery_s"],
            }
        )
    result = FigureResult(
        figure="fig4-runtimes",
        title=f"Per-runtime recovery (100 invocations, "
        f"{error_rate:.0%} errors)",
        columns=("runtime", "strategy", "mean_recovery_s",
                 "total_recovery_s"),
        rows=rows,
    )
    for profile in MICRO_WORKLOADS:
        retry = result.value(
            "mean_recovery_s",
            runtime=profile.runtime.value,
            strategy="retry",
        )
        canary = result.value(
            "mean_recovery_s",
            runtime=profile.runtime.value,
            strategy="canary",
        )
        result.notes.append(
            f"{profile.runtime.value}: Canary cuts recovery by "
            f"{pct_reduction(canary, retry):.0f}%"
        )
    return result
