"""Open-loop arrivals bench: Poisson job stream under failures
→ ``BENCH_open_loop.json``.

Extends the paper's closed batch experiments with an arrival process: jobs
arrive Poisson-distributed while earlier ones still run, so recoveries
compete with fresh cold starts for capacity.  The ``open-loop.*`` rows of
``FEATURE_CLAIMS`` check that Canary keeps its recovery advantage under
that interference.

Arrivals come from the platform's own traffic path (``repro.traffic``):
one Poisson tenant whose invocations each fan out to 10 functions.
"""

from conftest import FAST_SEEDS

from repro.core.canary import CanaryPlatform
from repro.core.scenario import ScenarioConfig
from repro.metrics.availability import availability
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig

RATE_PER_S = 0.25
DURATION_S = 120.0
WORKLOADS = ("graph-bfs", "web-service")


def run_open_loop(strategy: str, seed: int):
    tenant = Tenant(
        name="open-loop",
        arrivals=PoissonArrivals(rate_per_s=RATE_PER_S),
        workloads=WORKLOADS,
        functions_per_invocation=10,
    )
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=8,
            strategy=strategy,
            error_rate=0.0 if strategy == "ideal" else 0.15,
            traffic=TrafficConfig(tenants=(tenant,), duration_s=DURATION_S),
        ),
        seed=seed,
    )
    platform.run()
    return platform.summary(), availability(platform)


def run() -> dict:
    rows = []
    n = len(FAST_SEEDS)
    for strategy in ("ideal", "retry", "canary"):
        runs = [run_open_loop(strategy, seed) for seed in FAST_SEEDS]
        rows.append({
            "strategy": strategy,
            "jobs": round(sum(s.invocations_offered for s, _ in runs) / n, 6),
            "makespan_s": round(sum(s.makespan_s for s, _ in runs) / n, 6),
            "mean_recovery_s": round(
                sum(s.mean_recovery_s for s, _ in runs) / n, 6),
            "availability": round(sum(a for _, a in runs) / n, 6),
        })
    return {
        "rate_per_s": RATE_PER_S,
        "duration_s": DURATION_S,
        "seeds": list(FAST_SEEDS),
        "workloads": list(WORKLOADS),
        "rows": rows,
    }
