"""Integration tests for the function execution state machine.

These run small jobs through real platforms and assert the phase structure
of Eq. 1-2: launch -> init -> states (+ checkpoints) -> finish, plus the
recovery bookkeeping around injected failures.
"""

import pytest

from repro.common.types import FunctionState

from repro.core.jobs import JobRequest

from tests.conftest import TINY, TINY_BIG_CKPT, build_platform, run_tiny_job


class TestHappyPath:
    def test_single_function_completes(self):
        platform, job = run_tiny_job(num_functions=1, strategy="ideal")
        execution = job.executions[0]
        assert execution.completed
        assert execution.status is FunctionState.COMPLETED
        assert len(execution.attempts) == 1
        assert execution.attempts[0].completed_states == TINY.n_states

    def test_completion_time_matches_phase_structure(self):
        platform, job = run_tiny_job(num_functions=1, strategy="ideal")
        execution = job.executions[0]
        container = execution.attempts[0].container
        node = container.node
        runtime = container.runtime
        expected = node.scale_duration(
            runtime.launch_time_s + runtime.init_time_s
        )
        expected += node.scale_duration(TINY.input_fetch_s)
        expected += TINY.n_states * node.scale_duration(TINY.state_duration_s)
        expected += node.scale_duration(TINY.finish_s)
        # Plus one checkpoint per state (canary default off for ideal).
        assert execution.completed_at == pytest.approx(expected, rel=0.01)

    def test_canary_charges_checkpoint_time(self):
        _, ideal_job = run_tiny_job(num_functions=1, strategy="ideal")
        canary, job = run_tiny_job(num_functions=1, strategy="canary")
        t_ideal = ideal_job.executions[0].latency
        t_canary = job.executions[0].latency
        assert t_canary > t_ideal
        assert canary.checkpointer.checkpoints_taken == TINY.n_states

    def test_state_durations_deterministic_per_function(self):
        platform1, job1 = run_tiny_job(num_functions=2, seed=5)
        platform2, job2 = run_tiny_job(num_functions=2, seed=5)
        for e1, e2 in zip(job1.executions, job2.executions):
            assert list(e1._base_durations) == list(e2._base_durations)

    def test_state_durations_drawn_from_an_unkept_stream(self):
        import numpy as np

        from repro.sim.rng import RngRegistry
        from repro.workloads.profiles import get_workload

        profile = get_workload("graph-bfs")
        assert profile.state_jitter > 0
        platform, job = run_tiny_job(num_functions=3, workload=profile, seed=4)
        for execution in job.executions:
            # Exactly the draws a registered ``statedur:<fn>`` stream gives.
            rng = RngRegistry(4).stream(f"statedur:{execution.function_id}")
            draws = rng.normal(
                loc=profile.state_duration_s,
                scale=profile.state_jitter * profile.state_duration_s,
                size=profile.n_states,
            )
            expected = np.maximum(draws, 0.05 * profile.state_duration_s)
            assert list(execution._base_durations) == list(expected)
        streams = platform.sim.rng._streams
        assert not any(name.startswith("statedur:") for name in streams)

    def test_zero_jitter_draws_no_stream(self):
        assert TINY.state_jitter == 0
        platform, _ = run_tiny_job(num_functions=2)
        streams = platform.sim.rng._streams
        assert not any(name.startswith("statedur:") for name in streams)

    def test_all_functions_complete_without_failures(self):
        platform, job = run_tiny_job(num_functions=20, strategy="retry")
        assert job.done
        assert platform.summary().completed == 20
        assert platform.metrics.failures == []


class TestResultsFromState:
    """Latency, completion and checkpoint time are read from executions."""

    def test_latency_counts_from_admission_and_waits_for_completion(self):
        platform = build_platform()
        jobs = []
        platform.sim.call_at(
            2.0,
            lambda: jobs.append(
                platform.submit_job(JobRequest(workload=TINY, num_functions=3))
            ),
        )
        platform.run(until=4.0)
        (job,) = jobs
        assert job.submitted_at == 2.0
        assert all(e.latency is None for e in job.executions)
        assert platform.summary().completed == 0
        platform.run()
        assert platform.summary().completed == 3
        for execution in job.executions:
            assert execution.latency == execution.completed_at - 2.0

    def test_summary_sums_checkpoint_time_in_submission_order(self):
        platform, job = run_tiny_job(
            num_functions=6, error_rate=0.3, seed=3, refailure_rate=0.0
        )
        assert platform.metrics.failures
        total = 0.0
        for execution in job.executions:
            assert execution.checkpoint_time_s > 0.0
            total += execution.checkpoint_time_s
        assert platform.summary().checkpoint_time_s == total


class TestFailureAndRecovery:
    def test_victims_fail_and_recover(self):
        platform, job = run_tiny_job(
            num_functions=10, strategy="retry", error_rate=0.3,
            refailure_rate=0.0,
        )
        assert job.done
        assert len(platform.metrics.failures) == 3
        assert platform.metrics.unrecovered_failures() == []
        for event in platform.metrics.failures:
            assert event.recovery_time is not None
            assert event.recovery_time > 0

    def test_retry_loses_all_progress(self):
        platform, job = run_tiny_job(
            num_functions=10, strategy="retry", error_rate=0.3,
            refailure_rate=0.0,
        )
        for event in platform.metrics.failures:
            assert event.resumed_from_state == 0
            assert event.recovered_via == "cold"

    def test_canary_resumes_from_checkpoint(self):
        platform, job = run_tiny_job(
            num_functions=10, strategy="canary", error_rate=0.3,
            refailure_rate=0.0,
        )
        for event in platform.metrics.failures:
            # Resumed at the state after the last completed checkpoint:
            # with per-state checkpoints that's the integer part of the
            # kill progress.
            assert event.resumed_from_state == int(event.progress_states)

    def test_recovery_time_retry_exceeds_canary(self):
        retry, _ = run_tiny_job(
            num_functions=20, strategy="retry", error_rate=0.3, seed=3,
            refailure_rate=0.0,
        )
        canary, _ = run_tiny_job(
            num_functions=20, strategy="canary", error_rate=0.3, seed=3,
            refailure_rate=0.0,
        )
        assert (
            canary.metrics.mean_recovery_time()
            < retry.metrics.mean_recovery_time()
        )

    def test_failed_attempt_count_grows(self):
        platform, job = run_tiny_job(
            num_functions=10, strategy="retry", error_rate=0.3,
            refailure_rate=0.0,
        )
        killed = {event.function_id for event in platform.metrics.failures}
        failed = [e for e in job.executions if e.function_id in killed]
        assert all(len(e.attempts) == 2 for e in failed)

    def test_progress_target_includes_partial_state(self):
        platform, job = run_tiny_job(
            num_functions=10, strategy="retry", error_rate=0.3,
            refailure_rate=0.0,
        )
        # Kill fractions are drawn in (0.02, 0.98) of the window, so most
        # kills land mid-state and the progress target is fractional.
        fractional = [
            e for e in platform.metrics.failures
            if e.progress_states != int(e.progress_states)
        ]
        assert fractional

    def test_makespan_extends_under_failures(self):
        ideal, _ = run_tiny_job(num_functions=10, strategy="ideal", seed=2)
        retry, _ = run_tiny_job(
            num_functions=10, strategy="retry", error_rate=0.5, seed=2,
            refailure_rate=0.0,
        )
        assert retry.makespan() > ideal.makespan()


class TestCheckpointSpill:
    def test_big_checkpoints_spill_and_restore(self):
        # Completed functions drop their chains, so the rows are read from
        # snapshots of the checkpoint_info view taken while the job runs.
        platform = build_platform(
            strategy="canary", error_rate=0.4, refailure_rate=0.0
        )
        job = platform.submit_job(
            JobRequest(workload=TINY_BIG_CKPT, num_functions=5)
        )
        rows = []
        until = 0.0
        while not job.done:
            until += 0.5
            platform.run(until=until)
            rows.extend(platform.database.checkpoint_info.select())
        assert rows and all(r["location"] != "kv" for r in rows)
        assert platform.metrics.failures
        assert platform.metrics.unrecovered_failures() == []


class TestDatabaseConsistency:
    @pytest.mark.parametrize("strategy", ["ideal", "retry", "canary"])
    def test_referential_integrity_after_run(self, strategy):
        platform, job = run_tiny_job(
            num_functions=10,
            strategy=strategy,
            error_rate=0.0 if strategy == "ideal" else 0.3,
        )
        assert platform.database.check_referential_integrity() == []
        job_row = platform.database.job_info.get(job.job_id)
        assert job_row["state"] == "completed"
        fn_rows = platform.database.function_info.where(job_id=job.job_id)
        assert len(fn_rows) == 10
        assert all(r["state"] == "completed" for r in fn_rows)
