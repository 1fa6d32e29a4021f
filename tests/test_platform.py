"""End-to-end platform tests: admission, queueing, node failures, summaries."""

import pytest

from repro.common.errors import RequestValidationError
from repro.common.units import gb
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.faas.limits import PlatformLimits
from repro.runtime_manager.manager import RuntimeManagerModule

from tests.conftest import TINY, build_platform, run_tiny_job


class TestAdmission:
    def test_hard_violation_rejected(self):
        platform = build_platform()
        with pytest.raises(RequestValidationError):
            platform.submit_job(
                JobRequest(
                    workload=TINY, num_functions=1, memory_bytes=gb(100)
                )
            )

    def test_job_larger_than_concurrency_cap_rejected(self):
        # Queueing it would wait forever: no amount of headroom admits it.
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy="ideal",
                limits=PlatformLimits(max_concurrent_invocations=15),
            ),
            seed=0,
        )
        with pytest.raises(RequestValidationError, match="16.*15"):
            platform.submit_job(JobRequest(workload=TINY, num_functions=16))
        assert platform.jobs == {}

    def test_oversized_single_job_scenario_raises(self):
        scenario = ScenarioConfig(
            workload="micro-python", strategy="ideal", error_rate=0.0,
            num_functions=1001,
        )
        with pytest.raises(RequestValidationError, match="1001.*1000"):
            run_scenario(scenario, seed=0)

    @pytest.mark.parametrize("num_functions,jobs", [(1000, 1), (2000, 2)])
    def test_cap_sized_and_split_jobs_still_run(self, num_functions, jobs):
        summary = run_scenario(
            ScenarioConfig(
                workload="micro-python", strategy="ideal", error_rate=0.0,
                num_functions=num_functions, jobs=jobs,
            ),
            seed=0,
        )
        assert summary.num_functions == num_functions
        assert summary.completed == num_functions

    def test_concurrency_pressure_queues_jobs(self):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy="ideal",
                limits=PlatformLimits(max_concurrent_invocations=15),
            ),
            seed=0,
        )
        first = platform.submit_job(JobRequest(workload=TINY, num_functions=10))
        second = platform.submit_job(JobRequest(workload=TINY, num_functions=10))
        assert first is not None
        assert second is None  # queued
        platform.run()
        # The queued job was admitted once the first finished.
        assert len(platform.jobs) == 2
        assert all(j.done for j in platform.jobs.values())

    def test_queued_jobs_complete_in_fifo_order(self):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy="ideal",
                limits=PlatformLimits(max_concurrent_invocations=10),
            ),
            seed=0,
        )
        for _ in range(4):
            platform.submit_job(JobRequest(workload=TINY, num_functions=10))
        platform.run()
        jobs = sorted(platform.jobs.values(), key=lambda j: j.job_id)
        completions = [j.completed_at for j in jobs]
        assert completions == sorted(completions)

    def test_worker_info_populated(self):
        platform = build_platform(num_nodes=6)
        assert len(platform.database.worker_info) == 6


class TestNodeFailures:
    def test_node_failure_recovers_via_shared_checkpoints(self):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy="canary",
                error_rate=0.0,
                node_failure_count=1,
                node_failure_window=(3.0, 6.0),
            ),
            seed=1,
        )
        job = platform.submit_job(JobRequest(workload=TINY, num_functions=30))
        platform.run()
        assert job.done
        assert len(platform.cluster.alive_nodes()) == 3
        node_events = [
            e
            for e in platform.metrics.failures
            if e.reason.startswith("node-failure")
        ]
        assert node_events
        assert platform.metrics.unrecovered_failures() == []

    def test_node_failure_under_retry_restarts_everything(self):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy="retry",
                node_failure_count=1,
                node_failure_window=(3.0, 6.0),
            ),
            seed=1,
        )
        job = platform.submit_job(JobRequest(workload=TINY, num_functions=30))
        platform.run()
        assert job.done
        node_events = [
            e
            for e in platform.metrics.failures
            if e.reason.startswith("node-failure")
        ]
        assert node_events
        assert all(e.resumed_from_state == 0 for e in node_events)

    def test_correlated_failures_retry_slower_than_canary(self):
        def total_recovery(strategy):
            platform = CanaryPlatform(
                ScenarioConfig(
                    num_nodes=4,
                    strategy=strategy,
                    node_failure_count=1,
                    node_failure_window=(4.0, 8.0),
                ),
                seed=5,
            )
            platform.submit_job(JobRequest(workload=TINY, num_functions=40))
            platform.run()
            assert platform.metrics.unrecovered_failures() == []
            return platform.metrics.total_recovery_time()

        assert total_recovery("canary") < total_recovery("retry")

    def test_database_views_after_node_failures_with_replicas(
        self, monkeypatch
    ):
        registered = []
        register = RuntimeManagerModule.register_replica

        def recording(self, container, job_id, replica_id):
            registered.append((replica_id, container))
            register(self, container, job_id, replica_id)

        monkeypatch.setattr(RuntimeManagerModule, "register_replica", recording)
        platform = CanaryPlatform(
            ScenarioConfig(
                workload="graph-bfs",
                strategy="canary",
                error_rate=0.2,
                num_functions=40,
                num_nodes=6,
                node_failure_count=2,
            ),
            seed=0,
        )
        platform.submit_batch()
        platform.run()
        db = platform.database
        assert len(platform.cluster.alive_nodes()) == 4
        assert registered
        assert len(db.replication_info) == len(registered)
        for replica_id, container in registered:
            row = db.replication_info.get(replica_id)
            assert row["container_id"] == container.container_id
            assert row["state"] == container.state.value
        completed = [
            e for job in platform.jobs.values() for e in job.executions
            if e.completed
        ]
        assert len(completed) == 40
        for execution in completed:
            row = db.function_info.get(execution.function_id)
            assert row["state"] == "completed"
            assert row["current_state_index"] == execution.n_states - 1
        assert db.check_referential_integrity() == []

    def test_worker_info_marks_failed_node_dead(self):
        platform = CanaryPlatform(
            ScenarioConfig(
                workload="graph-bfs",
                num_functions=20,
                num_nodes=4,
                node_failure_count=1,
            ),
            seed=0,
        )
        platform.submit_batch()
        platform.run()
        [(_, dead)] = platform.injector.scheduled_node_failures
        alive = {
            row["worker_id"]: row["alive"]
            for row in platform.database.worker_info.select()
        }
        assert alive == {
            node.node_id: node.node_id != dead for node in platform.cluster
        }


class TestSummary:
    def test_summary_fields_consistent(self):
        platform, job = run_tiny_job(
            strategy="canary", error_rate=0.2, num_functions=10,
            refailure_rate=0.0,
        )
        summary = platform.summary()
        assert summary.strategy == "canary"
        assert summary.workload == "tiny"
        assert summary.num_functions == 10
        assert summary.completed == 10
        assert summary.all_completed
        assert summary.failures == 2
        assert summary.unrecovered == 0
        assert summary.makespan_s == pytest.approx(platform.makespan())
        assert summary.cost_total == pytest.approx(
            summary.cost_function + summary.cost_replica + summary.cost_standby
        )
        assert summary.checkpoints_taken > 0
        assert summary.seed == 0

    def test_empty_platform_summary(self):
        platform = build_platform()
        summary = platform.summary()
        assert summary.makespan_s == 0.0
        assert summary.num_functions == 0

    def test_different_seeds_differ(self):
        a, _ = run_tiny_job(strategy="canary", error_rate=0.3, seed=1)
        b, _ = run_tiny_job(strategy="canary", error_rate=0.3, seed=2)
        assert a.summary() != b.summary()
