"""Function-timeout enforcement + combined-feature chaos tests."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.network.config import get_network_preset
from repro.sla.policy import SLAPolicy
from repro.trace.tracer import Tracer

from tests.conftest import TINY


def run_with_timeout(strategy, timeout_s, num_functions=5, seed=0):
    platform = CanaryPlatform(
        ScenarioConfig(num_nodes=4, strategy=strategy, error_rate=0.0),
        seed=seed,
    )
    job = platform.submit_job(
        JobRequest(
            workload=TINY, num_functions=num_functions, timeout_s=timeout_s
        )
    )
    # TINY needs ~8.5s of states; a tight timeout guarantees kills, a
    # generous one never fires.  Guard against infinite timeout loops.
    platform.run(until=600.0)
    return platform, job


class TestFunctionTimeouts:
    def test_generous_timeout_never_fires(self):
        platform, job = run_with_timeout("canary", timeout_s=300.0)
        assert job.done
        assert platform.metrics.failures == []

    def test_timeout_kills_and_canary_resumes_from_checkpoint(self):
        # ~4s in: one or two states done and checkpointed.
        platform, job = run_with_timeout("canary", timeout_s=6.0)
        timeouts = [
            e for e in platform.metrics.failures if e.reason == "timeout"
        ]
        assert timeouts
        assert job.done
        # The recovery resumed from a checkpoint rather than state 0:
        # otherwise no attempt could ever beat the timeout.
        resumed = [e for e in timeouts if (e.resumed_from_state or 0) > 0]
        assert resumed

    def test_retry_with_hopeless_timeout_never_finishes(self):
        # Retry restarts from scratch each time; if the timeout is shorter
        # than the function, no attempt can ever complete.  (This is the
        # §II-B criticism of retry for timeout failures.)
        platform, job = run_with_timeout(
            "retry", timeout_s=6.0, num_functions=2
        )
        assert not job.done
        assert all(
            e.reason == "timeout" for e in platform.metrics.failures
        )

    def test_attempt_wedged_on_a_zombie_times_out(self):
        # The node accepts work but never advances it: the timeout, armed
        # when the attempt finds the node wedged, is the only way out.
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=1, strategy="canary"), seed=0
        )
        platform.cluster.nodes[0].zombie = True
        job = platform.submit_job(
            JobRequest(workload=TINY, num_functions=1, timeout_s=30.0)
        )
        platform.run(until=100.0)
        first = job.executions[0].attempts[0]
        failure = platform.metrics.failures[0]
        assert failure.reason == "timeout"
        assert failure.kill_time == first.container.ready_at + 30.0

    def test_deadline_inside_a_checkpoint_flow(self):
        # The attempt's own events all end before the deadline until the
        # checkpoint write, a flow of unknown length, starts.
        def run(timeout_s=None):
            tracer = Tracer()
            platform = CanaryPlatform(
                ScenarioConfig(
                    num_nodes=1, strategy="canary",
                    network=get_network_preset("10gbe"),
                ),
                seed=0,
                tracer=tracer,
            )
            job = platform.submit_job(
                JobRequest(workload=TINY, num_functions=1, timeout_s=timeout_s)
            )
            platform.run(until=100.0)
            return platform, tracer, job.executions[0].attempts[0]

        _, tracer, first = run()
        write = next(
            span for span in tracer.spans() if span.kind == "checkpoint_write"
        )
        timeout = (write.start + write.end) / 2 - first.container.ready_at
        platform, _, first = run(timeout)
        failure = platform.metrics.failures[0]
        assert failure.reason == "timeout"
        assert failure.kill_time == first.container.ready_at + timeout
        assert write.start < failure.kill_time < write.end

    def test_canary_with_hopeless_timeout_still_finishes(self):
        # Canary banks progress between attempts: each attempt commits a
        # few more states before timing out, so the job converges.
        platform, job = run_with_timeout(
            "canary", timeout_s=6.0, num_functions=2
        )
        assert job.done


def run_kitchen_sink(seed):
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=6,
            strategy="canary-sla",
            error_rate=0.3,
            refailure_rate=0.1,
            node_failure_count=1,
            node_failure_window=(5.0, 20.0),
            node_failure_precursors=2,
            prediction=True,
            reuse_containers=True,
            checkpoint_flush_lag_s=1.0,
        ),
        seed=seed,
    )
    job = platform.submit_job(
        JobRequest(
            workload=TINY,
            num_functions=25,
            sla=SLAPolicy(deadline_s=120.0),
        )
    )
    platform.run(until=2000.0)
    return platform, job


def assert_converged(platform, job):
    assert job.done
    summary = platform.summary()
    assert summary.completed == 25
    assert summary.unrecovered == 0
    assert platform.database.check_referential_integrity() == []
    # Deadline bookkeeping covered every function.
    strategy = platform.strategy
    assert strategy.deadline_hits + strategy.deadline_misses == 25
    # No leaked non-terminal containers except parked warm ones.
    for container in platform.controller.all_containers():
        assert container.terminal or container.is_warm_idle


class TestChaos:
    """Everything at once: errors, node failures, prediction, SLA, reuse."""

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_kitchen_sink_run_converges_consistently(self, seed):
        assert_converged(*run_kitchen_sink(seed))

    # Under 30% errors on 6 nodes, false-positive fault bursts used to get
    # every live node cordoned, stranding queued requests forever.
    @pytest.mark.parametrize("seed", [559, 959])
    def test_kitchen_sink_keeps_a_node_schedulable(self, seed):
        assert_converged(*run_kitchen_sink(seed))
