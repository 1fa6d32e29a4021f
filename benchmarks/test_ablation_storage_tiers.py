"""Ablation: checkpoint storage tier choice.

Algorithm 1 spills large checkpoints to the fastest tier; this bench
forces the compression workload (300 MB checkpoints) onto each tier via
the custom-endpoint override and measures the restore path's cost.
"""

from conftest import FAST_SEEDS, show

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.experiments.report import FigureResult
from repro.workloads.profiles import get_workload

ERROR_RATE = 0.25
TIERS = ("pmem", "ramdisk", "nfs", "s3")


def run_tier(tier: str, seed: int):
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=8,
            strategy="canary",
            error_rate=ERROR_RATE,
            refailure_rate=0.0,
        ),
        seed=seed,
    )
    platform.router.custom_endpoint = tier
    platform.submit_job(
        JobRequest(workload=get_workload("compression"), num_functions=40)
    )
    platform.run()
    return platform.summary()


def run_ablation():
    rows = []
    for tier in TIERS:
        summaries = [run_tier(tier, seed) for seed in FAST_SEEDS]
        rows.append(
            {
                "tier": tier,
                "mean_recovery_s": sum(s.mean_recovery_s for s in summaries)
                / len(summaries),
                "makespan_s": sum(s.makespan_s for s in summaries)
                / len(summaries),
                "checkpoint_time_s": sum(
                    s.checkpoint_time_s for s in summaries
                )
                / len(summaries),
            }
        )
    return FigureResult(
        figure="ablation-tiers",
        title="Checkpoint tier ablation (compression, 300 MB checkpoints)",
        columns=("tier", "mean_recovery_s", "checkpoint_time_s", "makespan_s"),
        rows=rows,
    )


def test_ablation_storage_tiers(benchmark):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    show(result)

    by_tier = {row["tier"]: row for row in result.rows}
    # Slow object storage pays visibly more checkpoint time than PMem.
    assert (
        by_tier["s3"]["checkpoint_time_s"]
        > 2 * by_tier["pmem"]["checkpoint_time_s"]
    )
    # And recovery (which includes the restore read) is slowest on S3.
    assert (
        by_tier["s3"]["mean_recovery_s"] > by_tier["pmem"]["mean_recovery_s"]
    )
    # NFS sits between local fast tiers and the object store.
    assert (
        by_tier["pmem"]["checkpoint_time_s"]
        < by_tier["nfs"]["checkpoint_time_s"]
        < by_tier["s3"]["checkpoint_time_s"]
    )
