"""Ablation: failure prediction & proactive mitigation (§VII extension).

Quantifies what the predict-and-drain extension buys on top of reactive
Canary recovery when node-level failures (with precursor fault bursts)
hit a loaded cluster.
"""

from conftest import FAST_SEEDS, show

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.experiments.report import FigureResult
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


def run_ablation():
    rows = []
    for enabled in (False, True):
        recoveries, losses, migrations, makespans = [], [], [], []
        for seed in FAST_SEEDS:
            summary, node_losses, migrated = run_one(enabled, seed)
            recoveries.append(summary.total_recovery_s)
            losses.append(node_losses)
            migrations.append(migrated)
            makespans.append(summary.makespan_s)
        n = len(FAST_SEEDS)
        rows.append(
            {
                "prediction": "on" if enabled else "off",
                "total_recovery_s": sum(recoveries) / n,
                "node_failure_losses": sum(losses) / n,
                "proactive_migrations": sum(migrations) / n,
                "makespan_s": sum(makespans) / n,
            }
        )
    return FigureResult(
        figure="ablation-prediction",
        title="Failure prediction & proactive drain vs reactive Canary",
        columns=(
            "prediction",
            "total_recovery_s",
            "node_failure_losses",
            "proactive_migrations",
            "makespan_s",
        ),
        rows=rows,
    )


def test_ablation_failure_prediction(benchmark):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    show(result)

    off = result.series(prediction="off")[0]
    on = result.series(prediction="on")[0]
    # Prediction drains the doomed nodes: far fewer functions die with them.
    assert on["node_failure_losses"] < off["node_failure_losses"]
    assert on["proactive_migrations"] > 0
    # And the correlated-restart recovery bill shrinks.
    assert on["total_recovery_s"] < off["total_recovery_s"]
