"""Microbenchmarks of the hot substrate paths.

These are classic pytest-benchmark timings (many rounds) for the pieces
every experiment leans on: the event engine, the KV store, and a full
small platform run.  Regressions here inflate every figure's runtime.
"""

from repro.common.types import RuntimeKind
from repro.common.units import KiB, mb
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.sim.engine import Simulator
from repro.storage.kvstore import KeyValueStore
from repro.workloads.profiles import WorkloadProfile

BENCH_WORKLOAD = WorkloadProfile(
    name="bench",
    runtime=RuntimeKind.PYTHON,
    n_states=6,
    state_duration_s=2.0,
    state_jitter=0.1,
    checkpoint_size_bytes=256 * KiB,
    serialize_overhead_s=0.01,
    finish_s=0.1,
    memory_bytes=mb(256),
)


def drain_engine(n_events: int = 10_000) -> int:
    sim = Simulator(seed=0)
    rng = sim.rng.stream("bench")

    def tick() -> None:
        if sim.pending < 50 and sim.events_processed < n_events:
            for _ in range(10):
                sim.call_in(float(rng.uniform(0.01, 1.0)), tick)

    for _ in range(50):
        sim.call_in(float(rng.uniform(0.01, 1.0)), tick)
    sim.run(max_events=n_events)
    return sim.events_processed


def kv_churn(n_ops: int = 5_000) -> int:
    kv = KeyValueStore()
    for i in range(n_ops):
        kv.put(f"k{i % 500}", i, size_bytes=float(i % 1000))
        if i % 3 == 0:
            kv.get(f"k{(i * 7) % 500}")
    return len(kv)


def full_platform_run() -> float:
    platform = CanaryPlatform(
        ScenarioConfig(num_nodes=4, strategy="canary", error_rate=0.2),
        seed=1,
    )
    platform.submit_job(JobRequest(workload=BENCH_WORKLOAD, num_functions=50))
    platform.run()
    assert platform.summary().completed == 50
    return platform.makespan()


def test_bench_event_engine(benchmark):
    events = benchmark(drain_engine)
    assert events == 10_000


def test_bench_kvstore(benchmark):
    size = benchmark(kv_churn)
    assert size == 500


def test_bench_platform_run(benchmark):
    makespan = benchmark(full_platform_run)
    assert makespan > 0
