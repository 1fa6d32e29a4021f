"""Closed-form checkpoints of completed folded segments.

A folded segment that runs to its end with no observer takes its
remaining checkpoints in closed form: the ids, ``checkpoints_taken`` and
the per-function charges advance, but nothing is written, because the
function completes at once and drops its chain.  The references are the
traced run, which writes every checkpoint for its spans, and the stepwise
path (``FunctionExecution._can_fold`` patched to refuse).  All five
database views must read the same at every ``run(until=...)`` step
either way.
"""

from __future__ import annotations

import pytest

from repro.common.types import RuntimeKind
from repro.common.units import KiB, mb
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.storage.router import CheckpointStorageRouter
from repro.trace.tracer import Tracer
from repro.workloads.profiles import WorkloadProfile

from tests.test_state_fold_exact import (
    BASE, SCENARIOS, _count_walks, _refuse_fold,
)


def _count_writes(patch) -> list[int]:
    """Count ``CheckpointStorageRouter.write`` calls into the returned cell."""
    calls = [0]
    write = CheckpointStorageRouter.write

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return write(self, *args, **kwargs)

    patch.setattr(CheckpointStorageRouter, "write", counted)
    return calls


def _run(scenario, monkeypatch, *, fold=True, traced=False):
    with monkeypatch.context() as patch:
        writes = _count_writes(patch)
        if not fold:
            _refuse_fold(patch)
        platform = CanaryPlatform(
            scenario, seed=3, tracer=Tracer() if traced else None
        )
        platform.submit_batch()
        platform.run()
    return platform, writes[0]


def _executions(platform: CanaryPlatform) -> list:
    return [
        execution
        for job in platform.jobs.values()
        for execution in job.executions
    ]


def _checkpoint_times(platform: CanaryPlatform) -> dict[str, tuple]:
    """Per function: checkpoint time, and the next checkpoint id, which
    stands in for the count taken."""
    return {
        e.function_id: (
            e.checkpoint_time_s, platform.ids.checkpoint_id(e.function_id)
        )
        for e in _executions(platform)
    }


def test_untraced_failure_free_run_writes_nothing(monkeypatch):
    scenario = BASE.with_(error_rate=0.0)
    untraced, writes = _run(scenario, monkeypatch)
    traced, traced_writes = _run(scenario, monkeypatch, traced=True)
    assert untraced.metrics.failures == []
    assert writes == 0
    taken = untraced.checkpointer.checkpoints_taken
    assert taken > 0 and traced_writes == taken
    assert traced.checkpointer.checkpoints_taken == taken
    # Bit for bit: each checkpoint is its own float addition either way.
    assert _checkpoint_times(untraced) == _checkpoint_times(traced)
    assert untraced.summary() == traced.summary()
    assert untraced.kv.used_bytes == 0.0


@pytest.mark.parametrize("error_rate", [0.0, 0.2])
def test_only_read_segments_walk_their_chain(monkeypatch, error_rate):
    """A segment nothing reads before its end completes in closed form,
    without a walk over its states; a traced run walks every segment, for
    its spans."""
    scenario = BASE.with_(error_rate=error_rate)
    counts = {}
    for traced in (False, True):
        with monkeypatch.context() as patch:
            walks = _count_walks(patch)
            _run(scenario, monkeypatch, traced=traced)
        counts[traced] = walks
    (plans, walked), (traced_plans, traced_walked) = counts[False], counts[True]
    assert plans == traced_plans > 0
    assert traced_walked == traced_plans
    if error_rate:
        # Kills settle the segments they stop, and unfold live siblings.
        assert 0 < walked < plans
    else:
        assert walked == 0


def test_next_checkpoint_id_matches_stepwise(monkeypatch):
    folded, writes = _run(BASE, monkeypatch)
    stepwise, stepwise_writes = _run(BASE, monkeypatch, fold=False)
    assert folded.metrics.failures
    # Failures materialise some checkpoints; completed segments skip the rest.
    taken = folded.checkpointer.checkpoints_taken
    assert 0 < writes < taken == stepwise_writes
    assert stepwise.checkpointer.checkpoints_taken == taken
    for execution in _executions(folded):
        fid = execution.function_id
        assert folded.ids.checkpoint_id(fid) == stepwise.ids.checkpoint_id(fid)


def _snapshots(name: str, monkeypatch, *, fold: bool) -> list[dict]:
    scenario, setup = SCENARIOS[name]
    with monkeypatch.context() as patch:
        if not fold:
            _refuse_fold(patch)
        platform = CanaryPlatform(scenario, seed=3)
        if setup is not None:
            setup(platform)
        else:
            platform.submit_batch()
        snapshots = []
        until = 0.0
        while platform.sim.pending:
            until += 0.7
            platform.run(until=until)
            assert platform.database.check_referential_integrity() == []
            snapshots.append(
                {
                    table: frozenset(tuple(row.items()) for row in view.select())
                    for table, view in vars(platform.database).items()
                }
            )
    return snapshots


@pytest.mark.parametrize("name", ["node-failures-flush-lag", "errors"])
def test_view_snapshots_match_stepwise(name, monkeypatch):
    folded = _snapshots(name, monkeypatch, fold=True)
    stepwise = _snapshots(name, monkeypatch, fold=False)
    assert folded == stepwise
    rows = [row for snapshot in folded for row in snapshot["checkpoint_info"]]
    assert rows
    if name == "node-failures-flush-lag":
        # Checkpoints lost with a node stay as unavailable rows while
        # their chains hold them.
        assert any(not dict(row)["available"] for row in rows)


#: Many short states with small checkpoints: the chain keeps only the
#: newest few (the dynamic retention depth), so a kill late in the segment
#: materialises far more checkpoints than survive.
LONG = WorkloadProfile(
    name="long",
    runtime=RuntimeKind.PYTHON,
    n_states=30,
    state_duration_s=0.5,
    state_jitter=0.0,
    checkpoint_size_bytes=64 * KiB,
    serialize_overhead_s=0.01,
    finish_s=0.1,
    memory_bytes=mb(256),
)


def _killed_mid_segment(monkeypatch, *, traced: bool) -> tuple[dict, int]:
    """Kill a lone folded attempt mid-segment; snapshot its checkpoint
    chain and counters right after the kill settled it."""
    with monkeypatch.context() as patch:
        writes = _count_writes(patch)
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=1, strategy="canary"),
            seed=0,
            tracer=Tracer() if traced else None,
        )
        job = platform.submit_job(JobRequest(workload=LONG, num_functions=1))
        execution = job.executions[0]
        fid = execution.function_id
        seen: dict = {}

        def kill() -> None:
            (attempt,) = execution.live_attempts()
            assert attempt.plan is not None
            platform.controller.kill_container(attempt.container, "test")
            chain = platform.checkpointer._per_function[fid]
            seen.update(
                chain=[(r.checkpoint_id, r.state_index) for r in chain],
                stored=[r.checkpoint_id in platform.kv for r in chain],
                kv_entries=len(platform.kv),
                taken=platform.checkpointer.checkpoints_taken,
                checkpoint_time_s=execution.checkpoint_time_s,
                next_id=platform.ids.checkpoint_id(fid),
            )

        platform.sim.call_at(12.3, kill)
        platform.run(until=12.3)
    return seen, writes[0]


def test_observer_writes_only_the_retained_checkpoints(monkeypatch):
    untraced, writes = _killed_mid_segment(monkeypatch, traced=False)
    traced, traced_writes = _killed_mid_segment(monkeypatch, traced=True)
    assert untraced == traced
    assert all(untraced["stored"])
    assert untraced["kv_entries"] == len(untraced["chain"])
    # The traced run writes every checkpoint; the untraced one only those
    # its chain keeps.
    assert traced_writes == traced["taken"] > len(traced["chain"])
    assert writes == len(untraced["chain"])
