"""Tests for SLA-aware recovery (deadline-driven replica spending)."""

import pytest

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.sla.policy import SLAPolicy, SlackClass, classify_slack
from repro.sla.strategy import SlaAwareCanaryStrategy

from tests.conftest import TINY


class TestSLAPolicy:
    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            SLAPolicy(deadline_s=0)


class TestClassifySlack:
    COLD = 4.0

    def classify(self, deadline, now=10.0, remaining=5.0):
        return classify_slack(
            SLAPolicy(deadline_s=deadline),
            now=now,
            submitted_at=0.0,
            estimated_remaining_s=remaining,
            cold_start_s=self.COLD,
        )

    def test_no_deadline(self):
        policy = SLAPolicy()
        assert (
            classify_slack(
                policy,
                now=1.0,
                submitted_at=0.0,
                estimated_remaining_s=1.0,
                cold_start_s=1.0,
            )
            is SlackClass.NONE
        )

    def test_critical_when_slack_below_one_cold_start(self):
        # elapsed 10, remaining 5 -> slack = deadline - 15.
        assert self.classify(deadline=17.0) is SlackClass.CRITICAL

    def test_tight_between_margins(self):
        assert self.classify(deadline=21.0) is SlackClass.TIGHT

    def test_comfortable_above_three_cold_starts(self):
        assert self.classify(deadline=40.0) is SlackClass.COMFORTABLE

    def test_already_late_is_critical(self):
        assert self.classify(deadline=5.0) is SlackClass.CRITICAL


def run_sla_job(*, deadline, error_rate=0.4, num_functions=20, seed=4,
                strategy="canary-sla"):
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=4,
            strategy=strategy,
            error_rate=error_rate,
            refailure_rate=0.0,
        ),
        seed=seed,
    )
    sla = SLAPolicy(deadline_s=deadline) if deadline is not None else None
    job = platform.submit_job(
        JobRequest(workload=TINY, num_functions=num_functions, sla=sla)
    )
    platform.run()
    return platform, job


class TestSlaAwareStrategy:
    def test_constructible_via_factory(self):
        platform, job = run_sla_job(deadline=None, error_rate=0.0)
        assert isinstance(platform.strategy, SlaAwareCanaryStrategy)
        assert job.done

    def test_no_sla_behaves_like_canary(self):
        sla_platform, _ = run_sla_job(deadline=None)
        canary_platform, _ = run_sla_job(deadline=None, strategy="canary")
        assert (
            sla_platform.metrics.mean_recovery_time()
            == canary_platform.metrics.mean_recovery_time()
        )
        assert sla_platform.strategy.pool_preserved == 0
        assert sla_platform.strategy.escalations == 0

    def test_loose_deadline_preserves_pool(self):
        # TINY runs ~15s; a 500s deadline leaves comfortable slack always.
        platform, job = run_sla_job(deadline=500.0)
        strategy = platform.strategy
        assert job.done
        assert strategy.pool_preserved > 0
        # Every recovery went cold; the pool was never consumed.
        assert strategy.recoveries_via_replica == 0
        assert strategy.deadline_misses == 0
        assert strategy.deadline_hits == 20

    def test_loose_deadline_cuts_replica_cost(self):
        sla_platform, _ = run_sla_job(deadline=500.0)
        plain_platform, _ = run_sla_job(deadline=None, strategy="canary")
        assert (
            sla_platform.summary().cost_replica
            <= plain_platform.summary().cost_replica
        )

    def test_tight_deadline_uses_replicas(self):
        # ~15s of work + cold start: a 25s deadline is tight/critical once
        # a failure has eaten part of the budget.
        platform, job = run_sla_job(deadline=25.0)
        strategy = platform.strategy
        assert job.done
        assert strategy.recoveries_via_replica > 0
        assert strategy.pool_preserved == 0

    def test_deadline_accounting_sums_to_functions(self):
        platform, _ = run_sla_job(deadline=30.0, num_functions=15)
        strategy = platform.strategy
        assert strategy.deadline_hits + strategy.deadline_misses == 15

    def test_impossible_deadline_counts_misses(self):
        platform, _ = run_sla_job(deadline=1.0, error_rate=0.0)
        assert platform.strategy.deadline_misses == 20
        assert platform.strategy.deadline_hits == 0

    def test_critical_recovery_escalates_when_pool_empty(self):
        # Many simultaneous failures vs a small pool: some critical
        # recoveries find no warm replica and escalate.
        platform, job = run_sla_job(
            deadline=16.0, error_rate=0.8, num_functions=30, seed=9
        )
        strategy = platform.strategy
        assert job.done
        assert strategy.escalations > 0
        assert platform.metrics.unrecovered_failures() == []
