"""Fig. 4 companion: the per-*runtime* view.

Fig. 4's caption measures "100 invocations of Python, Node.js, and Java
container runtimes".  Retry's recovery cost is dominated by the cold start
it repeats, so it inherits the runtime ordering (java » python > nodejs);
Canary's replica adoption makes recovery nearly runtime-independent.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ScenarioConfig
from repro.experiments.parallel import sweep_table
from repro.experiments.report import FigureResult, pct_reduction
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
    cells = [
        (
            {"runtime": profile.runtime.value, "strategy": strategy},
            ScenarioConfig(
                workload=profile.name,
                strategy=strategy,
                error_rate=error_rate,
                num_functions=num_functions,
            ),
        )
        for profile in MICRO_WORKLOADS
        for strategy in STRATEGIES
    ]
    result = sweep_table(
        "fig4-runtimes",
        f"Per-runtime recovery (100 invocations, {error_rate:.0%} errors)",
        cells,
        {"mean_recovery_s": "mean_recovery_s",
         "total_recovery_s": "total_recovery_s"},
        seeds=seeds, jobs=jobs, placement=placement,
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
