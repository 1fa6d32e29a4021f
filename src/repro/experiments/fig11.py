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
from repro.experiments.parallel import sweep_table
from repro.experiments.report import FigureResult, reductions_vs_retry

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
    cells = [
        (
            {"strategy": strategy, "invocations": n},
            ScenarioConfig(
                workload=workload,
                strategy=strategy,
                error_rate=0.0 if strategy == "ideal" else error_rate,
                num_functions=n,
                node_failure_count=(
                    0 if strategy == "ideal" else node_failures_for(n)
                ),
            ),
        )
        for strategy in STRATEGIES
        for n in invocations
    ]
    result = sweep_table(
        "fig11",
        "Recovery time vs concurrent functions "
        "(16 nodes, node-level failures included)",
        cells,
        {"total_recovery_s": "total_recovery_s",
         "mean_recovery_s": "mean_recovery_s", "makespan_s": "makespan_s",
         "failures": "failures"},
        seeds=seeds, jobs=jobs, placement=placement,
    )
    reductions = reductions_vs_retry(
        result, "mean_recovery_s", "invocations", invocations
    )
    if reductions:
        result.notes.append(
            f"Canary cuts mean recovery by up to {max(reductions):.0f}% "
            f"vs retry across the scale sweep (paper: up to 80%)"
        )
    return result
