"""Unit tests for the failure injector."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.jobs import Job, JobRequest
from repro.faults.injector import KILL_FRACTION_BOUNDS, FailureInjector
from repro.sim.engine import Simulator

from tests.conftest import TINY


class _FakeExecution:
    def __init__(self, function_id):
        self.function_id = function_id
        self.completed = False


def make_job(n=100):
    job = Job(job_id="job-0000", request=JobRequest(workload=TINY, num_functions=n))
    job.executions = [_FakeExecution(f"fn-0000-{i:04d}") for i in range(n)]
    return job


def make_injector(error_rate=0.15, **kwargs):
    return FailureInjector(Simulator(seed=7), error_rate=error_rate, **kwargs)


class TestVictimSelection:
    def test_victim_count_rounding(self):
        injector = make_injector(error_rate=0.15)
        assert injector.victim_count(100) == 15
        assert injector.victim_count(10) == 2  # 1.5 rounds to 2

    def test_nonzero_rate_always_picks_at_least_one(self):
        injector = make_injector(error_rate=0.01)
        assert injector.victim_count(10) == 1

    def test_zero_rate_picks_none(self):
        injector = make_injector(error_rate=0.0)
        assert injector.victim_count(100) == 0
        plan = injector.register_job(make_job())
        assert plan.victims == frozenset()

    def test_full_rate_picks_all(self):
        injector = make_injector(error_rate=1.0)
        assert injector.victim_count(100) == 100

    def test_victims_are_distinct_functions(self):
        injector = make_injector(error_rate=0.5)
        plan = injector.register_job(make_job(100))
        assert len(plan.victims) == 50

    def test_plan_is_deterministic_per_seed(self):
        def plan(seed):
            injector = FailureInjector(Simulator(seed=seed), error_rate=0.3)
            return injector.register_job(make_job())

        a, b = plan(1), plan(1)
        assert a.victims == b.victims
        assert a.kill_fractions == b.kill_fractions
        assert plan(1).victims != plan(2).victims

    def test_kill_fractions_within_bounds(self):
        injector = make_injector(error_rate=1.0)
        plan = injector.register_job(make_job())
        assert all(0.02 <= u <= 0.98 for u in plan.kill_fractions.values())


class TestAttemptDecisions:
    def test_primary_first_attempt_of_victim_killed(self):
        injector = make_injector(error_rate=1.0)
        plan = injector.register_job(make_job(10))
        fid = sorted(plan.victims)[0]
        fraction = injector.attempt_kill_fraction(
            job_id="job-0000", function_id=fid, attempt_index=0
        )
        assert fraction == plan.kill_fractions[fid]

    def test_non_victim_never_killed(self):
        injector = make_injector(error_rate=0.1)
        plan = injector.register_job(make_job(100))
        survivor = next(
            e.function_id
            for e in make_job(100).executions
            if e.function_id not in plan.victims
        )
        assert (
            injector.attempt_kill_fraction(
                job_id="job-0000", function_id=survivor, attempt_index=0
            )
            is None
        )

    def test_unknown_job_never_killed(self):
        injector = make_injector(error_rate=1.0)
        assert (
            injector.attempt_kill_fraction(
                job_id="ghost", function_id="fn", attempt_index=0
            )
            is None
        )

    def test_recovery_attempts_respect_refailure_rate(self):
        never = make_injector(error_rate=1.0, refailure_rate=0.0)
        never.register_job(make_job(10))
        plan = never.plan_for("job-0000")
        fid = sorted(plan.victims)[0]
        assert (
            never.attempt_kill_fraction(
                job_id="job-0000", function_id=fid, attempt_index=1
            )
            is None
        )
        always = make_injector(error_rate=1.0, refailure_rate=1.0)
        always.register_job(make_job(10))
        fid = sorted(always.plan_for("job-0000").victims)[0]
        assert (
            always.attempt_kill_fraction(
                job_id="job-0000", function_id=fid, attempt_index=1
            )
            is not None
        )

    def test_secondary_kill_rate_defaults_to_error_rate(self):
        injector = make_injector(error_rate=1.0)
        injector.register_job(make_job(10))
        fid = sorted(injector.plan_for("job-0000").victims)[0]
        # With a 100% secondary rate the draw always kills.
        assert (
            injector.attempt_kill_fraction(
                job_id="job-0000", function_id=fid, attempt_index=0,
                secondary=True,
            )
            is not None
        )

    def test_fractional_refailure_rate_pinned_per_seed(self):
        # Seed 7, refailure_rate=0.5: exactly which of ten recovery
        # attempts re-fail is a pure function of the stream.
        injector = make_injector(error_rate=1.0, refailure_rate=0.5)
        injector.register_job(make_job(10))
        fid = sorted(injector.plan_for("job-0000").victims)[0]
        draws = [
            injector.attempt_kill_fraction(
                job_id="job-0000", function_id=fid, attempt_index=1
            )
            for _ in range(10)
        ]
        killed = [i for i, f in enumerate(draws) if f is not None]
        assert killed == [4, 5, 9]
        assert draws[4] == pytest.approx(0.2770, abs=1e-3)
        lo, hi = KILL_FRACTION_BOUNDS
        assert all(lo <= f <= hi for f in draws if f is not None)

    def test_fractional_error_rate_kills_secondaries_pinned_per_seed(self):
        # Secondaries of a victim die at the error rate: at seed 7 and a
        # 40% rate, exactly two of ten draws kill.
        injector = make_injector(error_rate=0.4)
        injector.register_job(make_job(10))
        fid = sorted(injector.plan_for("job-0000").victims)[0]
        draws = [
            injector.attempt_kill_fraction(
                job_id="job-0000", function_id=fid, attempt_index=0,
                secondary=True,
            )
            for _ in range(10)
        ]
        assert sum(f is not None for f in draws) == 2

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            make_injector(error_rate=1.5)
        with pytest.raises(ValueError):
            make_injector(error_rate=0.1, refailure_rate=-0.2)


class TestNodeFailures:
    def test_scheduled_failures_kill_nodes(self):
        sim = Simulator(seed=3)
        cluster = Cluster(8)
        injector = FailureInjector(
            sim,
            error_rate=0.0,
            node_failure_count=2,
            node_failure_window=(1.0, 10.0),
        )
        times = injector.schedule_node_failures(cluster)
        assert len(times) == 2
        assert all(1.0 <= t <= 10.0 for t in times)
        sim.run()
        assert len(injector.scheduled_node_failures) == 2
        assert len(cluster.alive_nodes()) == 6

    def test_empty_window_rejected(self):
        # Rejected at construction time, not mid-run.
        with pytest.raises(ValueError, match="node_failure_window"):
            FailureInjector(
                Simulator(),
                node_failure_count=1,
                node_failure_window=(5.0, 5.0),
            )

    def test_empty_window_allowed_without_node_failures(self):
        # The (0, 0) default is fine as long as no failures are scheduled.
        injector = FailureInjector(Simulator(), node_failure_window=(0.0, 0.0))
        assert injector.schedule_node_failures(Cluster(2)) == []

    def test_zero_count_is_noop(self):
        injector = FailureInjector(Simulator())
        assert injector.schedule_node_failures(Cluster(2)) == []

    def test_victims_are_distinct_nodes(self):
        sim = Simulator(seed=3)
        cluster = Cluster(8)
        injector = FailureInjector(
            sim,
            node_failure_count=3,
            node_failure_window=(1.0, 2.0),
        )
        injector.schedule_node_failures(cluster)
        sim.run()
        victims = [node_id for _, node_id in injector.scheduled_node_failures]
        assert victims == ["node-07", "node-05", "node-01"]
        assert len(set(victims)) == 3
        assert injector.victim_repicks == 0

    def test_dead_victim_is_repicked_and_counted(self):
        sim = Simulator(seed=7)
        cluster = Cluster(3)
        injector = FailureInjector(
            sim,
            node_failure_count=2,
            node_failure_window=(1.0, 2.0),
        )
        injector.schedule_node_failures(cluster)
        # Kill two nodes before the failures fire: the first failure
        # re-picks the survivor, the second finds nobody left.
        cluster.fail_node(cluster.nodes[0].node_id, 0.5)
        cluster.fail_node(cluster.nodes[1].node_id, 0.5)
        sim.run()
        assert injector.victim_repicks == 1
        assert len(injector.scheduled_node_failures) == 1
        assert [n for _, n in injector.scheduled_node_failures] == ["node-02"]
        assert len(cluster.alive_nodes()) == 0

    def test_precursors_follow_the_repicked_victim(self):
        # The precursor closures share the target cell with the failure
        # event: a dead original victim no longer receives precursors.
        sim = Simulator(seed=7)
        cluster = Cluster(3)
        injector = FailureInjector(
            sim,
            node_failure_count=1,
            node_failure_window=(8.0, 9.0),
            node_failure_precursors=2,
        )

        class _Controller:
            def __init__(self):
                self.kills = []

            def kill_container(self, container, reason):
                self.kills.append((container, reason))

        controller = _Controller()
        injector.schedule_node_failures(cluster, controller=controller)
        sim.run()
        # No containers on the bare cluster: precursors fired but found
        # nothing to kill; the machinery must not crash either way.
        assert controller.kills == []
        assert len(injector.scheduled_node_failures) == 1
