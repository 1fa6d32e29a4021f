"""Ablation: warm-start container reuse (§V-A future work).

The paper leaves "consolidating multiple functions in a single container to
reduce the cold start latency" to future work; the platform implements the
adjacent mechanism OpenWhisk actually ships — reusing completed containers
for subsequent invocations of the same runtime.  This bench measures its
effect on a multi-wave batch; the ``warm-starts.*`` rows of
``FEATURE_CLAIMS`` check that reuse saves cold starts and time.
"""

from conftest import FAST_SEEDS

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
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


def run() -> dict:
    rows = []
    n = len(FAST_SEEDS)
    for reuse in (False, True):
        runs = [run_one(reuse, seed) for seed in FAST_SEEDS]
        rows.append({
            "reuse": "on" if reuse else "off",
            "makespan_s": sum(makespan for makespan, _, _ in runs) / n,
            "cold_starts": sum(cold for _, cold, _ in runs) / n,
            "warm_starts": sum(warm for _, _, warm in runs) / n,
        })
    return {"rows": rows}
