"""Behavioral tests per recovery strategy."""

import warnings

import pytest

from repro.common.types import RecoveryStrategyName
from repro.core.jobs import JobRequest
from repro.faas.container import ContainerPurpose
from repro.strategies.factory import make_strategy

from tests.conftest import TINY, build_platform, run_tiny_job


def live_containers(platform, purpose):
    return [
        c
        for c in platform.controller.all_containers()
        if c.purpose == purpose and not c.terminal
    ]


class TestFactory:
    @pytest.mark.parametrize("name", list(RecoveryStrategyName))
    def test_all_strategies_constructible(self, name):
        platform = build_platform(strategy="retry")
        strategy = make_strategy(name, platform)
        assert strategy.name is name

    def test_string_names_accepted(self):
        platform = build_platform(strategy="retry")
        assert (
            make_strategy("canary", platform).name
            is RecoveryStrategyName.CANARY
        )


class TestIdeal:
    def test_no_failures_no_recovery_machinery(self):
        platform, job = run_tiny_job(strategy="ideal", num_functions=10)
        assert platform.metrics.failures == []
        assert platform.replication is None
        assert platform.checkpointer.checkpoints_taken == 0
        assert platform.summary().cost_replica == 0.0

    def test_warns_if_failure_slips_through(self):
        platform, job = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            platform, job = run_tiny_job(
                strategy="ideal", error_rate=0.5, num_functions=4,
                refailure_rate=0.0,
            )
        assert any("IdealStrategy" in str(w.message) for w in caught)
        assert job.done  # still terminates via the fallback


class TestRetry:
    def test_no_replicas_no_checkpoints(self):
        platform, job = run_tiny_job(
            strategy="retry", error_rate=0.3, num_functions=10,
            refailure_rate=0.0,
        )
        assert platform.checkpointer.checkpoints_taken == 0
        assert platform.summary().cost_replica == 0.0
        assert job.done

    def test_repeated_refailures_still_terminate(self):
        platform, job = run_tiny_job(
            strategy="retry", error_rate=0.5, num_functions=10,
            refailure_rate=0.5, seed=11,
        )
        assert job.done
        assert platform.metrics.unrecovered_failures() == []


class TestCanary:
    def test_recovers_on_replicas(self):
        platform, job = run_tiny_job(
            strategy="canary", error_rate=0.3, num_functions=20,
            refailure_rate=0.0,
        )
        assert job.done
        vias = {e.recovered_via for e in platform.metrics.failures}
        assert "replica" in vias
        assert platform.strategy.recoveries_via_replica > 0

    def test_replica_pool_retired_after_job(self):
        platform, job = run_tiny_job(
            strategy="canary", error_rate=0.3, num_functions=20,
            refailure_rate=0.0,
        )
        assert not [
            c
            for c in platform.controller.all_containers()
            if c.purpose == ContainerPurpose.REPLICA and c.is_warm_idle
        ]

    def test_replication_only_ablation_restarts_from_zero(self):
        platform, job = run_tiny_job(
            strategy="canary-replication-only",
            error_rate=0.3,
            num_functions=20,
            refailure_rate=0.0,
        )
        assert platform.checkpointer.checkpoints_taken == 0
        for event in platform.metrics.failures:
            assert event.resumed_from_state == 0

    def test_checkpoint_only_ablation_uses_cold_containers(self):
        platform, job = run_tiny_job(
            strategy="canary-checkpoint-only",
            error_rate=0.3,
            num_functions=20,
            refailure_rate=0.0,
        )
        assert platform.checkpointer.checkpoints_taken > 0
        assert platform.replication is None
        for event in platform.metrics.failures:
            assert event.recovered_via == "cold"
            assert event.resumed_from_state == int(event.progress_states)

    def test_full_canary_beats_both_ablations_on_recovery(self):
        results = {}
        for strategy in (
            "canary",
            "canary-replication-only",
            "canary-checkpoint-only",
        ):
            platform, _ = run_tiny_job(
                strategy=strategy, error_rate=0.3, num_functions=30, seed=4,
                refailure_rate=0.0,
            )
            results[strategy] = platform.metrics.mean_recovery_time()
        assert results["canary"] <= results["canary-replication-only"]
        assert results["canary"] <= results["canary-checkpoint-only"]


class TestRequestReplication:
    def test_launches_siblings(self):
        platform, job = run_tiny_job(
            strategy="request-replication", num_functions=5
        )
        # 1 primary + 1 sibling per function.
        assert len(platform.controller.containers) == 10

    def test_sibling_absorbs_failure(self):
        platform, job = run_tiny_job(
            strategy="request-replication",
            error_rate=0.2,
            num_functions=10,
            refailure_rate=0.0,
            seed=6,
        )
        assert job.done
        sibling_events = [
            e
            for e in platform.metrics.failures
            if e.recovered_via == "sibling"
        ]
        assert sibling_events
        # Sibling recovery is nearly instantaneous when the sibling is at
        # similar progress.
        assert all(e.recovery_time < TINY.state_duration_s * 2
                   for e in sibling_events)

    def test_cost_roughly_doubles(self):
        rr, _ = run_tiny_job(
            strategy="request-replication", num_functions=10, seed=2
        )
        ideal, _ = run_tiny_job(strategy="ideal", num_functions=10, seed=2)
        ratio = rr.summary().cost_total / ideal.summary().cost_total
        assert 1.7 < ratio < 2.3


class TestActiveStandby:
    def test_standby_exists_per_function(self):
        platform = build_platform(strategy="active-standby")
        platform.submit_job(JobRequest(workload=TINY, num_functions=5))
        platform.run(until=10.0)
        assert len(live_containers(platform, ContainerPurpose.STANDBY)) == 5

    def test_standby_adopts_on_failure(self):
        platform, job = run_tiny_job(
            strategy="active-standby", error_rate=0.3, num_functions=10,
            refailure_rate=0.0,
        )
        assert job.done
        assert platform.strategy.standby_activations > 0
        standby_events = [
            e
            for e in platform.metrics.failures
            if e.recovered_via == "standby"
        ]
        assert standby_events
        # AS has no checkpoints: restarts from scratch.
        assert all(e.resumed_from_state == 0 for e in standby_events)

    def test_standbys_cleaned_up_after_job(self):
        platform, job = run_tiny_job(
            strategy="active-standby", error_rate=0.2, num_functions=10,
            refailure_rate=0.0,
        )
        assert live_containers(platform, ContainerPurpose.STANDBY) == []

    def test_standby_cost_accrues(self):
        platform, job = run_tiny_job(
            strategy="active-standby", num_functions=10
        )
        assert platform.summary().cost_standby > 0
