"""``Job.completed_count`` against a scan oracle.

``Job.remaining()`` and ``Job.done`` read a counter bumped in
``FunctionExecution._complete`` instead of scanning the executions.  These
runs re-scan on every query and after every completion, across node
failures, cloned first-finisher functions, and single-function traffic
jobs, and check that ``done`` flips exactly at a job's last completion.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.execution import FunctionExecution
from repro.core.jobs import Job
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import _run_platform
from repro.sla.policy import SLAPolicy
from repro.strategies.cloning import CloningConfig
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig


def scan_remaining(job: Job) -> int:
    if not job.executions:
        return job.num_functions
    return sum(1 for e in job.executions if not e.completed)


def scan_done(job: Job) -> bool:
    return bool(job.executions) and all(e.completed for e in job.executions)


@pytest.fixture
def oracle(monkeypatch):
    """Check every progress query and completion; return the tallies."""
    calls = Counter()  # progress queries made during the run
    completions = Counter()  # job_id -> first completions seen
    remaining = Job.remaining
    done = Job.done.fget
    complete = FunctionExecution._complete

    def checked_remaining(self):
        calls["remaining"] += 1
        value = remaining(self)
        assert value == scan_remaining(self)
        return value

    def checked_done(self):
        calls["done"] += 1
        value = done(self)
        assert value == scan_done(self)
        return value

    def checked_complete(self, winning):
        job = self.job
        first = not self.completed
        assert not done(job) or not first
        complete(self, winning)
        assert self.completed
        assert remaining(job) == scan_remaining(job)
        assert done(job) == scan_done(job)
        if first:
            completions[job.job_id] += 1
            last = completions[job.job_id] == len(job.executions)
            assert done(job) == last
            assert job.completed_count == completions[job.job_id]

    monkeypatch.setattr(Job, "remaining", checked_remaining)
    monkeypatch.setattr(Job, "done", property(checked_done))
    monkeypatch.setattr(FunctionExecution, "_complete", checked_complete)
    return SimpleNamespace(calls=calls, completions=completions)


def run_checked(scenario, oracle, seed=0):
    platform = _run_platform(scenario, seed)
    jobs = list(platform.jobs.values())
    assert jobs and all(job.done for job in jobs)
    for job in jobs:
        assert job.completed_count == len(job.executions)
        assert oracle.completions[job.job_id] == len(job.executions)
        assert job.remaining() == 0
    return platform


def test_counter_with_errors_and_node_failures(oracle):
    scenario = ScenarioConfig(
        workload="graph-bfs",
        strategy="canary",
        error_rate=0.2,
        num_functions=40,
        num_nodes=4,
        jobs=2,
        node_failure_count=2,
    )
    platform = run_checked(scenario, oracle)
    assert len(platform.injector.scheduled_node_failures) == 2
    assert platform.summary().failures > 0
    # Replication asks for job progress on every completion.
    assert oracle.calls["remaining"] >= 40


def test_counter_with_cloning(oracle):
    scenario = ScenarioConfig(
        workload="graph-bfs",
        strategy="cloning",
        cloning=CloningConfig(clones=2),
        num_functions=24,
        num_nodes=6,
    )
    platform = run_checked(scenario, oracle)
    job = next(iter(platform.jobs.values()))
    # Two copies per function ran, yet each function completed once.
    assert all(len(e.attempts) >= 2 for e in job.executions)
    assert sum(oracle.completions.values()) == 24


def test_counter_with_single_function_traffic_jobs(oracle):
    scenario = ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.05,
        num_nodes=4,
        traffic=TrafficConfig(
            tenants=(
                Tenant(
                    name="a",
                    arrivals=PoissonArrivals(2.0),
                    workloads=("micro-python",),
                    sla=SLAPolicy(deadline_s=25.0),
                ),
            ),
            duration_s=20.0,
        ),
    )
    platform = run_checked(scenario, oracle)
    jobs = list(platform.jobs.values())
    assert len(jobs) > 10
    assert all(len(job.executions) == 1 for job in jobs)
