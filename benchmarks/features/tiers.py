"""Ablation: checkpoint storage tier choice.

Algorithm 1 spills large checkpoints to the fastest tier; this bench
forces the compression workload (300 MB checkpoints) onto each tier via
the custom-endpoint override and measures the restore path's cost; the
``tiers.*`` rows of ``FEATURE_CLAIMS`` check the tier order.
"""

from conftest import FAST_SEEDS

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
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


def run() -> dict:
    rows = []
    n = len(FAST_SEEDS)
    for tier in TIERS:
        summaries = [run_tier(tier, seed) for seed in FAST_SEEDS]
        rows.append({
            "tier": tier,
            "mean_recovery_s": sum(s.mean_recovery_s for s in summaries) / n,
            "makespan_s": sum(s.makespan_s for s in summaries) / n,
            "checkpoint_time_s": sum(
                s.checkpoint_time_s for s in summaries) / n,
        })
    return {"rows": rows}
