"""Edge-case behaviour of the recovery strategies under stress."""

import pytest

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.faas.container import ContainerPurpose
from repro.strategies import base as strategies_base
from repro.strategies import request_replication

from tests.conftest import TINY, run_tiny_job


class TestCanaryWaiterPath:
    def test_failure_burst_exercises_waiting(self):
        """At a 90% error rate the warm pool can't cover the burst: some
        recoveries wait for in-flight replicas or fall back to cold."""
        platform, job = run_tiny_job(
            strategy="canary",
            error_rate=0.9,
            num_functions=40,
            refailure_rate=0.0,
            seed=13,
        )
        assert job.done
        strategy = platform.strategy
        assert strategy.recoveries_waited > 0
        # Every waiter was eventually served (replica or fallback).
        assert platform.metrics.unrecovered_failures() == []
        assert (
            strategy.recoveries_via_replica + strategy.recoveries_via_cold
            >= len(platform.metrics.failures) - strategy.recoveries_waited
        )

    def test_burst_recovery_still_beats_retry(self):
        canary, _ = run_tiny_job(
            strategy="canary", error_rate=0.9, num_functions=40,
            refailure_rate=0.0, seed=13,
        )
        retry, _ = run_tiny_job(
            strategy="retry", error_rate=0.9, num_functions=40,
            refailure_rate=0.0, seed=13,
        )
        assert (
            canary.metrics.total_recovery_time()
            < retry.metrics.total_recovery_time()
        )


class TestRequestReplicationDegrees:
    def test_two_siblings_config(self, monkeypatch):
        monkeypatch.setattr(request_replication, "RR_REPLICAS", 2)
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=4, strategy="request-replication"),
            seed=0,
        )
        platform.submit_job(JobRequest(workload=TINY, num_functions=5))
        platform.run()
        # 1 primary + 2 siblings per function.
        assert len(platform.controller.containers) == 15
        assert platform.summary().completed == 5

    def test_higher_degree_costs_more(self, monkeypatch):
        def cost(degree):
            monkeypatch.setattr(request_replication, "RR_REPLICAS", degree)
            platform = CanaryPlatform(
                ScenarioConfig(num_nodes=4, strategy="request-replication"),
                seed=0,
            )
            platform.submit_job(JobRequest(workload=TINY, num_functions=10))
            platform.run()
            return platform.summary().cost_total

        assert cost(2) > cost(1)


class TestDetectionDelay:
    def test_zero_detection_delay_supported(self, monkeypatch):
        monkeypatch.setattr(strategies_base, "DETECTION_DELAY_S", 0.0)
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy="canary",
                error_rate=0.3,
                refailure_rate=0.0,
            ),
            seed=0,
        )
        platform.submit_job(JobRequest(workload=TINY, num_functions=10))
        platform.run()
        assert platform.metrics.unrecovered_failures() == []

    def test_larger_detection_delay_slows_recovery(self, monkeypatch):
        def mean_recovery(delay):
            monkeypatch.setattr(strategies_base, "DETECTION_DELAY_S", delay)
            platform = CanaryPlatform(
                ScenarioConfig(
                    num_nodes=4,
                    strategy="canary",
                    error_rate=0.3,
                    refailure_rate=0.0,
                ),
                seed=2,
            )
            platform.submit_job(JobRequest(workload=TINY, num_functions=20))
            platform.run()
            return platform.metrics.mean_recovery_time()

        assert mean_recovery(5.0) > mean_recovery(0.5)


class TestCheckpointIntervalIntegration:
    def test_job_level_interval_respected(self):
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=4, strategy="canary"),
            seed=0,
        )
        platform.submit_job(
            JobRequest(workload=TINY, num_functions=5, checkpoint_interval=2)
        )
        platform.run()
        # TINY has 4 states; interval 2 -> checkpoints after states 1 and 3.
        assert platform.checkpointer.checkpoints_taken == 5 * 2

    def test_wider_interval_increases_redo(self):
        def mean_recovery(interval):
            platform = CanaryPlatform(
                ScenarioConfig(
                    num_nodes=4,
                    strategy="canary",
                    error_rate=0.4,
                    refailure_rate=0.0,
                ),
                seed=4,
            )
            platform.submit_job(
                JobRequest(
                    workload=TINY,
                    num_functions=20,
                    checkpoint_interval=interval,
                )
            )
            platform.run()
            return platform.metrics.mean_recovery_time()

        assert mean_recovery(4) > mean_recovery(1)


class TestReplicaHygiene:
    @pytest.mark.parametrize("strategy", ["canary", "canary-sla"])
    def test_no_replicas_survive_the_run(self, strategy):
        platform, job = run_tiny_job(
            strategy=strategy, error_rate=0.5, num_functions=30,
            refailure_rate=0.0,
        )
        leftovers = [
            c
            for c in platform.controller.all_containers()
            if c.purpose == ContainerPurpose.REPLICA and not c.terminal
        ]
        assert leftovers == []
