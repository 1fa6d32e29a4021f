"""Ablation: resource heterogeneity and recovery-time variation.

§I: "the function recovery time on heterogeneous resources is
non-deterministic and results in variations that affect application
performance … FaaS platforms must incorporate resource heterogeneity".
Canary's replica claim prefers fast nodes; this bench compares recovery
behaviour on the heterogeneous Chameleon mix vs a homogeneous cluster.  The
``heterogeneity.*`` rows of ``FEATURE_CLAIMS`` check that Canary keeps its
lead on both.
"""

import statistics

from conftest import FAST_SEEDS

from repro.cluster.heterogeneity import CHAMELEON_PROFILES
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
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


def run() -> dict:
    rows = []
    for label, profiles in (
        ("heterogeneous", CHAMELEON_PROFILES),
        ("homogeneous", HOMOGENEOUS),
    ):
        for strategy in ("retry", "canary"):
            recoveries = [recovery for seed in FAST_SEEDS
                          for recovery in run_one(profiles, strategy, seed)]
            rows.append({
                "cluster": label,
                "strategy": strategy,
                "mean_recovery_s": statistics.mean(recoveries),
                "stdev_recovery_s": statistics.stdev(recoveries),
            })
    return {"rows": rows}
