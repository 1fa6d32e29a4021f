"""Ablation: resource heterogeneity and recovery-time variation.

§I: "the function recovery time on heterogeneous resources is
non-deterministic and results in variations that affect application
performance … FaaS platforms must incorporate resource heterogeneity".
Canary's replica claim prefers fast nodes; this bench compares recovery
behaviour on the heterogeneous Chameleon mix vs a homogeneous cluster.
"""

import statistics

from conftest import FAST_SEEDS, show

from repro.cluster.heterogeneity import CHAMELEON_PROFILES
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.experiments.report import FigureResult
from repro.workloads.profiles import get_workload

WORKLOAD = get_workload("graph-bfs")
ERROR_RATE = 0.25
#: A single mid-range SKU for the homogeneous arm.
HOMOGENEOUS = (CHAMELEON_PROFILES[1],)


def run_one(profiles, strategy: str, seed: int):
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=8,
            strategy=strategy,
            error_rate=ERROR_RATE,
            refailure_rate=0.0,
            heterogeneity_profiles=profiles,
        ),
        seed=seed,
    )
    platform.submit_job(JobRequest(workload=WORKLOAD, num_functions=100))
    platform.run()
    recoveries = [
        e.recovery_time
        for e in platform.metrics.failures
        if e.recovery_time is not None
    ]
    return recoveries


def run_ablation():
    rows = []
    for label, profiles in (
        ("heterogeneous", CHAMELEON_PROFILES),
        ("homogeneous", HOMOGENEOUS),
    ):
        for strategy in ("retry", "canary"):
            all_recoveries = []
            for seed in FAST_SEEDS:
                all_recoveries.extend(run_one(profiles, strategy, seed))
            rows.append(
                {
                    "cluster": label,
                    "strategy": strategy,
                    "mean_recovery_s": statistics.mean(all_recoveries),
                    "stdev_recovery_s": statistics.stdev(all_recoveries),
                }
            )
    return FigureResult(
        figure="ablation-heterogeneity",
        title="Recovery-time variation on heterogeneous vs homogeneous "
        "clusters (25% errors)",
        columns=("cluster", "strategy", "mean_recovery_s",
                 "stdev_recovery_s"),
        rows=rows,
    )


def test_ablation_heterogeneity(benchmark):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    show(result)

    def row(cluster, strategy):
        return result.series(cluster=cluster, strategy=strategy)[0]

    # Canary keeps both the mean and the spread of recovery far below
    # retry on BOTH cluster mixes — heterogeneity does not erode the win.
    for cluster in ("heterogeneous", "homogeneous"):
        canary = row(cluster, "canary")
        retry = row(cluster, "retry")
        assert canary["mean_recovery_s"] < 0.4 * retry["mean_recovery_s"]
        assert canary["stdev_recovery_s"] < retry["stdev_recovery_s"]

    # Heterogeneity inflates retry's recovery spread (victims redo lost
    # work on whatever speed node they land on); Canary's fast-node
    # replica preference keeps its spread comparatively tight.
    retry_het = row("heterogeneous", "retry")["stdev_recovery_s"]
    canary_het = row("heterogeneous", "canary")["stdev_recovery_s"]
    assert canary_het < 0.5 * retry_het
