"""Ablation: failure prediction & proactive mitigation (§VII extension).

Quantifies what the predict-and-drain extension buys on top of reactive
Canary recovery when node-level failures (with precursor fault bursts)
hit a loaded cluster; the ``prediction.*`` rows of ``FEATURE_CLAIMS``
check that draining saves functions and recovery time.
"""

from conftest import FAST_SEEDS

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.workloads.profiles import get_workload

NUM_FUNCTIONS = 100
WORKLOAD = get_workload("graph-bfs")


def run_one(enable_prediction: bool, seed: int):
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=8,
            strategy="canary",
            error_rate=0.05,
            node_failure_count=2,
            node_failure_window=(8.0, 30.0),
            node_failure_precursors=3,
            prediction=enable_prediction,
        ),
        seed=seed,
    )
    platform.submit_job(
        JobRequest(workload=WORKLOAD, num_functions=NUM_FUNCTIONS)
    )
    platform.run()
    summary = platform.summary()
    node_losses = sum(
        1
        for e in platform.metrics.failures
        if e.reason.startswith("node-failure")
    )
    migrations = (
        platform.mitigator.migrations if platform.mitigator is not None else 0
    )
    return summary, node_losses, migrations


def run() -> dict:
    rows = []
    n = len(FAST_SEEDS)
    for enabled in (False, True):
        runs = [run_one(enabled, seed) for seed in FAST_SEEDS]
        rows.append({
            "prediction": "on" if enabled else "off",
            "total_recovery_s": sum(s.total_recovery_s for s, _, _ in runs) / n,
            "node_failure_losses": sum(loss for _, loss, _ in runs) / n,
            "proactive_migrations": sum(m for _, _, m in runs) / n,
            "makespan_s": sum(s.makespan_s for s, _, _ in runs) / n,
        })
    return {"rows": rows}
