"""Property-based tests for workflows and SLA classification."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.core.workflow import (
    WorkflowCoordinator,
    WorkflowRequest,
    WorkflowStage,
)
from repro.sla.policy import SLAPolicy, SlackClass, classify_slack

from tests.conftest import TINY


@given(
    stage_sizes=st.lists(
        st.integers(min_value=1, max_value=8), min_size=1, max_size=4
    ),
    error_rate=st.sampled_from([0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_workflow_stage_ordering_invariant(stage_sizes, error_rate, seed):
    """Stages always complete strictly in order, whatever the failures."""
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=4,
            strategy="canary",
            error_rate=error_rate,
            refailure_rate=0.0,
        ),
        seed=seed,
    )
    coordinator = WorkflowCoordinator(platform)
    request = WorkflowRequest(
        name="w",
        stages=tuple(
            WorkflowStage(
                f"stage-{i}", JobRequest(workload=TINY, num_functions=n)
            )
            for i, n in enumerate(stage_sizes)
        ),
    )
    run = coordinator.submit(request)
    platform.run()

    assert run.done
    assert len(run.jobs) == len(stage_sizes)
    # Triggers honoured: each stage submitted only after the previous
    # completed; boundaries sorted.
    for previous, current in zip(run.jobs, run.jobs[1:]):
        assert current.submitted_at >= previous.completed_at
    assert run.stage_boundaries == sorted(run.stage_boundaries)
    # Every function completed exactly once.
    assert platform.summary().completed == sum(stage_sizes)
    assert platform.metrics.unrecovered_failures() == []


@given(
    deadline=st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
    elapsed=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    remaining=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    cold=st.floats(min_value=0.1, max_value=60.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_slack_classification_total_and_monotone(
    deadline, elapsed, remaining, cold
):
    """Classification is total, and more slack never looks *worse*."""
    policy = SLAPolicy(deadline_s=deadline)
    rank = {
        SlackClass.CRITICAL: 0,
        SlackClass.TIGHT: 1,
        SlackClass.COMFORTABLE: 2,
    }
    current = classify_slack(
        policy,
        now=elapsed,
        submitted_at=0.0,
        estimated_remaining_s=remaining,
        cold_start_s=cold,
    )
    assert current in rank
    looser = classify_slack(
        policy,
        now=max(0.0, elapsed - 10.0),  # less elapsed time = more slack
        submitted_at=0.0,
        estimated_remaining_s=remaining,
        cold_start_s=cold,
    )
    assert rank[looser] >= rank[current]


@given(deadline=st.floats(min_value=1.0, max_value=1e4, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_no_deadline_always_none(deadline):
    policy = SLAPolicy()  # no deadline
    assert (
        classify_slack(
            policy,
            now=deadline,
            submitted_at=0.0,
            estimated_remaining_s=1.0,
            cold_start_s=1.0,
        )
        is SlackClass.NONE
    )
