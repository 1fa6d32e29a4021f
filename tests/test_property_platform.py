"""Property-based end-to-end invariants of the simulated platform.

Whatever the seed, error rate, strategy, and job size: every function
completes exactly once, every failure is recovered, the database stays
referentially consistent, and costs/makespans are sane.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig

from tests.conftest import TINY

strategies = st.sampled_from(
    ["ideal", "retry", "canary", "canary-replication-only",
     "canary-checkpoint-only", "request-replication", "active-standby"]
)


@given(
    strategy=strategies,
    error_rate=st.sampled_from([0.0, 0.1, 0.3, 0.5]),
    num_functions=st.integers(min_value=1, max_value=25),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50, deadline=None)
def test_every_run_terminates_consistently(
    strategy, error_rate, num_functions, seed
):
    if strategy == "ideal":
        error_rate = 0.0
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=4,
            strategy=strategy,
            error_rate=error_rate,
            refailure_rate=0.0,
        ),
        seed=seed,
    )
    job = platform.submit_job(
        JobRequest(workload=TINY, num_functions=num_functions)
    )
    platform.run()

    # Liveness: everything completes.
    assert job.done
    summary = platform.summary()
    assert summary.completed == num_functions
    assert summary.unrecovered == 0

    # Every injected failure produced a resolved event with sane timings.
    for event in platform.metrics.failures:
        assert event.recovered_at is not None
        assert event.recovered_at >= event.kill_time
        if event.resume_time is not None:
            assert event.kill_time <= event.resume_time <= event.recovered_at
        assert 0.0 <= event.progress_states <= TINY.n_states

    # Safety: no function completed more than once, traces align.
    assert summary.makespan_s > 0
    assert summary.cost_total > 0
    assert platform.database.check_referential_integrity() == []

    # No leaked containers: everything is terminal after the run.
    leftovers = [
        c for c in platform.controller.all_containers() if not c.terminal
    ]
    assert leftovers == []

    # Node capacity fully restored.
    for node in platform.cluster.nodes:
        assert node.memory_used == 0.0
        assert len(node.containers) == 0


@given(
    error_rate=st.sampled_from([0.1, 0.25, 0.5]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_canary_never_slower_to_recover_than_retry(error_rate, seed):
    """Canary's mean recovery must beat retry's for the same failures."""

    def mean_recovery(strategy):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy=strategy,
                error_rate=error_rate,
                refailure_rate=0.0,
            ),
            seed=seed,
        )
        platform.submit_job(JobRequest(workload=TINY, num_functions=20))
        platform.run()
        return platform.metrics.mean_recovery_time()

    assert mean_recovery("canary") < mean_recovery("retry")


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_ideal_is_a_lower_bound_on_makespan(seed):
    def makespan(strategy, error_rate):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy=strategy,
                error_rate=error_rate,
                refailure_rate=0.0,
            ),
            seed=seed,
        )
        platform.submit_job(JobRequest(workload=TINY, num_functions=15))
        platform.run()
        return platform.makespan()

    ideal = makespan("ideal", 0.0)
    assert makespan("retry", 0.3) >= ideal
    # Canary pays checkpoint overhead, so it's above ideal too.
    assert makespan("canary", 0.3) >= ideal
