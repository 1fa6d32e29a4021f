"""Fig. 12 — cluster-size scaling: 1 to 16 nodes, 5000 invocations, 15 %.

The batch of jobs is large enough to saturate small clusters, so the total
execution time falls as nodes are added.  Paper findings: all three
scenarios scale (1.2× ideal, 1.18× Canary, 1.10× retry going 1→16 nodes);
Canary stays within ~2.75 % of ideal and is up to 17 % faster than retry.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_SEEDS, ScenarioConfig
from repro.experiments.parallel import sweep_table
from repro.experiments.report import FigureResult, reductions_vs_retry

STRATEGIES = ("ideal", "retry", "canary")
NODE_COUNTS = (1, 2, 4, 8, 16)
ERROR_RATE = 0.15
WORKLOAD = "web-service"
NUM_FUNCTIONS = 5000
BATCH_JOBS = 10  # submitted as a batch of jobs; the concurrency limit queues them


def run(
    *,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    node_counts: Sequence[int] = NODE_COUNTS,
    error_rate: float = ERROR_RATE,
    num_functions: int = NUM_FUNCTIONS,
    batch_jobs: int = BATCH_JOBS,
    workload: str = WORKLOAD,
    jobs: Optional[int] = None,
    placement: Optional[str] = None,
) -> FigureResult:
    cells = [
        (
            {"strategy": strategy, "nodes": nodes},
            ScenarioConfig(
                workload=workload,
                strategy=strategy,
                error_rate=0.0 if strategy == "ideal" else error_rate,
                num_functions=num_functions,
                jobs=batch_jobs,
                num_nodes=nodes,
            ),
        )
        for strategy in STRATEGIES
        for nodes in node_counts
    ]
    result = sweep_table(
        "fig12",
        f"Cluster scaling, {num_functions} invocations, "
        f"{error_rate:.0%} failure rate",
        cells,
        {"makespan_s": "makespan_s", "total_recovery_s": "total_recovery_s"},
        seeds=seeds, jobs=jobs, placement=placement,
    )
    smallest, largest = min(node_counts), max(node_counts)
    for strategy in STRATEGIES:
        t_small = result.value("makespan_s", strategy=strategy, nodes=smallest)
        t_large = result.value("makespan_s", strategy=strategy, nodes=largest)
        if t_large > 0:
            result.notes.append(
                f"{strategy}: scalability {t_small / t_large:.2f}x going "
                f"{smallest}->{largest} nodes "
                f"(paper: 1.2x ideal / 1.18x Canary / 1.10x retry)"
            )
    gaps = reductions_vs_retry(result, "makespan_s", "nodes", node_counts)
    if gaps:
        result.notes.append(
            f"Canary is up to {max(gaps):.0f}% faster than retry "
            f"(paper: up to 17%)"
        )
    return result
