"""Tests for staged workflows (trigger-chained jobs)."""

import pytest

from repro.common.types import RuntimeKind
from repro.common.units import KiB, mb
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.core.workflow import (
    WorkflowCoordinator,
    WorkflowRequest,
    WorkflowStage,
)
from repro.faas.limits import PlatformLimits
from repro.workloads.profiles import WorkloadProfile

from tests.conftest import TINY

REDUCE = WorkloadProfile(
    name="tiny-reduce",
    runtime=RuntimeKind.PYTHON,
    n_states=2,
    state_duration_s=3.0,
    state_jitter=0.0,
    checkpoint_size_bytes=32 * KiB,
    serialize_overhead_s=0.01,
    finish_s=0.1,
    memory_bytes=mb(256),
)


def mapreduce_request(mappers=8, reducers=2):
    return WorkflowRequest(
        name="mapreduce",
        stages=(
            WorkflowStage("map", JobRequest(workload=TINY, num_functions=mappers)),
            WorkflowStage(
                "reduce", JobRequest(workload=REDUCE, num_functions=reducers)
            ),
        ),
    )


class TestWorkflowRequest:
    def test_needs_stages(self):
        with pytest.raises(ValueError):
            WorkflowRequest(name="w", stages=())

    def test_duplicate_stage_names_rejected(self):
        stage = WorkflowStage("s", JobRequest(workload=TINY, num_functions=1))
        with pytest.raises(ValueError):
            WorkflowRequest(name="w", stages=(stage, stage))


class TestWorkflowExecution:
    def run_workflow(self, *, strategy="ideal", error_rate=0.0, seed=0,
                     request=None):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy=strategy,
                error_rate=error_rate,
                refailure_rate=0.0,
            ),
            seed=seed,
        )
        coordinator = WorkflowCoordinator(platform)
        run = coordinator.submit(request or mapreduce_request())
        platform.run()
        return platform, run

    def test_stages_run_in_order(self):
        platform, run = self.run_workflow()
        assert run.done
        assert len(run.jobs) == 2
        map_job, reduce_job = run.jobs
        # Reducers launch only after all mappers complete.
        assert reduce_job.submitted_at >= map_job.completed_at

    def test_stage_durations_sum_to_makespan(self):
        platform, run = self.run_workflow()
        durations = run.stage_durations()
        assert set(durations) == {"map", "reduce"}
        assert sum(durations.values()) == pytest.approx(run.makespan())

    def test_stage_durations_raise_while_running(self):
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=4, strategy="ideal"),
            seed=0,
        )
        coordinator = WorkflowCoordinator(platform)
        run = coordinator.submit(mapreduce_request())
        with pytest.raises(RuntimeError):
            run.stage_durations()

    def test_workflow_survives_failures(self):
        platform, run = self.run_workflow(
            strategy="canary", error_rate=0.4, seed=2
        )
        assert run.done
        assert platform.metrics.unrecovered_failures() == []
        # Triggers still fired in order despite recoveries.
        map_job, reduce_job = run.jobs
        assert reduce_job.submitted_at >= map_job.completed_at

    def test_workflow_exactly_once_per_stage(self):
        platform, run = self.run_workflow(
            strategy="canary", error_rate=0.5, seed=3
        )
        for job in run.jobs:
            assert all(e.completed for e in job.executions)
            assert (
                platform.summary().completed
                == sum(j.num_functions for j in run.jobs)
            )

    def test_concurrent_workflows(self):
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=4, strategy="ideal"),
            seed=0,
        )
        coordinator = WorkflowCoordinator(platform)
        runs = [coordinator.submit(mapreduce_request()) for _ in range(3)]
        platform.run()
        assert all(run.done for run in runs)

    def test_workflow_with_queued_stage(self):
        # Concurrency limit below the mapper count of two workflows forces
        # the second workflow's stages through the pending-job queue.
        limits = PlatformLimits(max_concurrent_invocations=10)
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=4, strategy="ideal", limits=limits),
            seed=0,
        )
        coordinator = WorkflowCoordinator(platform)
        first = coordinator.submit(mapreduce_request(mappers=8))
        second = coordinator.submit(mapreduce_request(mappers=8))
        platform.run()
        assert first.done and second.done

    def test_three_stage_pipeline(self):
        request = WorkflowRequest(
            name="dl-pipeline",
            stages=(
                WorkflowStage(
                    "preprocess", JobRequest(workload=TINY, num_functions=4)
                ),
                WorkflowStage(
                    "train", JobRequest(workload=TINY, num_functions=6)
                ),
                WorkflowStage(
                    "aggregate", JobRequest(workload=REDUCE, num_functions=1)
                ),
            ),
        )
        platform, run = self.run_workflow(request=request)
        assert run.done
        boundaries = run.stage_boundaries
        assert boundaries == sorted(boundaries)
        assert len(boundaries) == 3
