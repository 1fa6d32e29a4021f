"""Fig. 11 — scaling the number of concurrent functions (with node failures).

200–1000 concurrent functions on 16 nodes, failure counts growing with the
function count, *including node-level failures* that wipe every function on
a node at once.  Paper findings: Canary's total recovery stays nearly flat
and close to zero while retry's grows; node failures make retry pay a
correlated restart storm whereas Canary restores from checkpoints in shared
storage; overall up to 80 % lower recovery time.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ScenarioConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.report import FigureResult, pct_reduction
from repro.experiments.runner import mean_of

STRATEGIES = ("ideal", "retry", "canary")
INVOCATIONS = (200, 400, 800, 1000)
ERROR_RATE = 0.15
WORKLOAD = "graph-bfs"


def node_failures_for(invocations: int) -> int:
    """Node failures scale with the function count (1 per ~400 functions)."""
    return max(1, invocations // 400)


def run(
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    invocations: Sequence[int] = INVOCATIONS,
    error_rate: float = ERROR_RATE,
    workload: str = WORKLOAD,
    jobs: Optional[int] = None,
    placement: Optional[str] = None,
) -> FigureResult:
    grid = [(strategy, n) for strategy in STRATEGIES for n in invocations]
    scenarios = [
        ScenarioConfig(
            workload=workload,
            strategy=strategy,
            error_rate=0.0 if strategy == "ideal" else error_rate,
            num_functions=n,
            node_failure_count=(
                0 if strategy == "ideal" else node_failures_for(n)
            ),
        )
        for strategy, n in grid
    ]
    rows: list[dict] = []
    for (strategy, n), summaries in zip(
        grid, run_sweep(
            scenarios, seeds, jobs=jobs, placement=placement
        )
    ):
        row = mean_of(summaries)
        rows.append(
            {
                "strategy": strategy,
                "invocations": n,
                "total_recovery_s": row["total_recovery_s"],
                "mean_recovery_s": row["mean_recovery_s"],
                "makespan_s": row["makespan_s"],
                "failures": row["failures"],
            }
        )
    result = FigureResult(
        figure="fig11",
        title="Recovery time vs concurrent functions "
        "(16 nodes, node-level failures included)",
        columns=("strategy", "invocations", "total_recovery_s",
                 "mean_recovery_s", "makespan_s", "failures"),
        rows=rows,
    )
    reductions = []
    for n in invocations:
        retry = result.value("mean_recovery_s", strategy="retry", invocations=n)
        canary = result.value("mean_recovery_s", strategy="canary", invocations=n)
        if retry > 0:
            reductions.append(pct_reduction(canary, retry))
    if reductions:
        result.notes.append(
            f"Canary cuts mean recovery by up to {max(reductions):.0f}% "
            f"vs retry across the scale sweep (paper: up to 80%)"
        )
    return result
