"""Open-loop arrivals bench: Poisson job stream under failures.

Extends the paper's closed batch experiments with an arrival process: jobs
arrive Poisson-distributed while earlier ones still run, so recoveries
compete with fresh cold starts for capacity.  Canary must keep its
recovery advantage under that interference.

Arrivals come from the platform's own traffic path (``repro.traffic``):
one Poisson tenant whose invocations each fan out to 10 functions.

Writes ``BENCH_open_loop.json`` (machine-readable, like every other
bench).

``BENCH_SMOKE=1`` (CI) shrinks the horizon and seed count.
"""

import json
import os
from pathlib import Path

from conftest import FAST_SEEDS, show

from repro.core.canary import CanaryPlatform
from repro.core.scenario import ScenarioConfig
from repro.experiments.report import FigureResult
from repro.metrics.availability import availability
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_open_loop.json"
SMOKE = os.environ.get("BENCH_SMOKE", "").lower() in ("1", "true", "yes")

RATE_PER_S = 0.25
DURATION_S = 60.0 if SMOKE else 120.0
SEEDS = FAST_SEEDS[:1] if SMOKE else FAST_SEEDS
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
    summary = platform.summary()
    return summary, availability(platform)


def run_bench():
    rows = []
    for strategy in ("ideal", "retry", "canary"):
        makespans, recoveries, avails, jobs = [], [], [], []
        for seed in SEEDS:
            summary, avail = run_open_loop(strategy, seed)
            makespans.append(summary.makespan_s)
            recoveries.append(summary.mean_recovery_s)
            avails.append(avail)
            jobs.append(summary.invocations_offered)
        n = len(SEEDS)
        rows.append(
            {
                "strategy": strategy,
                "jobs": sum(jobs) / n,
                "makespan_s": sum(makespans) / n,
                "mean_recovery_s": sum(recoveries) / n,
                "availability": sum(avails) / n,
            }
        )
    return FigureResult(
        figure="open-loop",
        title=f"Poisson arrivals ({RATE_PER_S}/s for {DURATION_S:.0f}s, "
        f"15% errors)",
        columns=("strategy", "jobs", "makespan_s", "mean_recovery_s",
                 "availability"),
        rows=rows,
    )


def test_bench_open_loop(benchmark):
    result = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    show(result)

    ideal = result.series(strategy="ideal")[0]
    retry = result.series(strategy="retry")[0]
    canary = result.series(strategy="canary")[0]

    assert ideal["availability"] == 1.0
    # Canary keeps its recovery advantage under open-loop interference.
    assert canary["mean_recovery_s"] < 0.5 * retry["mean_recovery_s"]
    assert canary["availability"] > retry["availability"]
    # And the job stream drains close to the ideal horizon.
    assert canary["makespan_s"] < retry["makespan_s"]

    record = {
        "smoke": SMOKE,
        "rate_per_s": RATE_PER_S,
        "duration_s": DURATION_S,
        "seeds": list(SEEDS),
        "workloads": list(WORKLOADS),
        "rows": [
            {k: (round(v, 6) if isinstance(v, float) else v)
             for k, v in row.items()}
            for row in result.rows
        ],
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
