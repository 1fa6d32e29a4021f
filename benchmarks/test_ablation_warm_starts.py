"""Ablation: warm-start container reuse (§V-A future work).

The paper leaves "consolidating multiple functions in a single container to
reduce the cold start latency" to future work; the platform implements the
adjacent mechanism OpenWhisk actually ships — reusing completed containers
for subsequent invocations of the same runtime.  This bench measures its
effect on a multi-wave batch.
"""

from conftest import FAST_SEEDS, show

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.experiments.report import FigureResult
from repro.faas.limits import PlatformLimits
from repro.workloads.profiles import get_workload

WORKLOAD = get_workload("web-service")
JOBS = 4
FUNCTIONS_PER_JOB = 50


def run_one(reuse: bool, seed: int):
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=4,
            strategy="ideal",
            reuse_containers=reuse,
            # A tight concurrency limit forces the batch through in waves,
            # so later waves can warm-start on earlier waves' containers.
            limits=PlatformLimits(
                max_concurrent_invocations=FUNCTIONS_PER_JOB
            ),
        ),
        seed=seed,
    )
    for _ in range(JOBS):
        platform.submit_job(
            JobRequest(workload=WORKLOAD, num_functions=FUNCTIONS_PER_JOB)
        )
    platform.run()
    cold = sum(inv.cold_starts_total for inv in platform.invokers_list())
    return platform.makespan(), cold, platform.controller.warm_starts


def run_ablation():
    rows = []
    for reuse in (False, True):
        makespans, colds, warms = [], [], []
        for seed in FAST_SEEDS:
            makespan, cold, warm = run_one(reuse, seed)
            makespans.append(makespan)
            colds.append(cold)
            warms.append(warm)
        n = len(FAST_SEEDS)
        rows.append(
            {
                "reuse": "on" if reuse else "off",
                "makespan_s": sum(makespans) / n,
                "cold_starts": sum(colds) / n,
                "warm_starts": sum(warms) / n,
            }
        )
    return FigureResult(
        figure="ablation-warm-starts",
        title=f"Container reuse, {JOBS}x{FUNCTIONS_PER_JOB} "
        f"{WORKLOAD.name} invocations in waves",
        columns=("reuse", "makespan_s", "cold_starts", "warm_starts"),
        rows=rows,
    )


def test_ablation_warm_starts(benchmark):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    show(result)

    off = result.series(reuse="off")[0]
    on = result.series(reuse="on")[0]
    assert on["cold_starts"] < off["cold_starts"]
    assert on["warm_starts"] > 0
    assert on["makespan_s"] < off["makespan_s"]
