"""Closed-form checkpoints of folded segments.

A folded segment that runs to its end with no observer takes its
remaining checkpoints in closed form: the ids, ``checkpoints_taken`` and
the per-function charges advance, but nothing is written, because the
function completes at once and drops its chain.  An observer writes only
the checkpoints the chain retains.  A tracer only observes: a traced run
writes what the untraced one writes.  The reference is the stepwise path
(``FunctionExecution._can_fold`` patched to refuse), which writes every
checkpoint.  All five database views must read the same at every
``run(until=...)`` step either way.
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


def _record_writes(patch) -> list[str]:
    """Record the key of each ``CheckpointStorageRouter.write`` call, in
    order, into the returned list."""
    keys: list[str] = []
    write = CheckpointStorageRouter.write

    def recorded(self, key, *args, **kwargs):
        keys.append(key)
        return write(self, key, *args, **kwargs)

    patch.setattr(CheckpointStorageRouter, "write", recorded)
    return keys


def _run(scenario, monkeypatch, *, fold=True, traced=False):
    with monkeypatch.context() as patch:
        writes = _record_writes(patch)
        if not fold:
            _refuse_fold(patch)
        platform = CanaryPlatform(
            scenario, seed=3, tracer=Tracer() if traced else None
        )
        platform.submit_batch()
        platform.run()
    return platform, len(writes)


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
    folded, writes = _run(scenario, monkeypatch)
    stepwise, stepwise_writes = _run(scenario, monkeypatch, fold=False)
    assert folded.metrics.failures == []
    assert writes == 0
    taken = folded.checkpointer.checkpoints_taken
    assert taken > 0 and stepwise_writes == taken
    assert stepwise.checkpointer.checkpoints_taken == taken
    # Bit for bit: each checkpoint is its own float addition either way.
    assert _checkpoint_times(folded) == _checkpoint_times(stepwise)
    assert folded.summary() == stepwise.summary()
    assert folded.kv.used_bytes == 0.0


def _walks(scenario, monkeypatch) -> dict[bool, list[int]]:
    """Plans made and plans walked, untraced and traced."""
    counts = {}
    for traced in (False, True):
        with monkeypatch.context() as patch:
            walks = _count_walks(patch)
            _run(scenario, monkeypatch, traced=traced)
        counts[traced] = walks
    return counts


@pytest.mark.parametrize("error_rate", [0.0, 0.2])
def test_only_read_segments_walk_their_chain(monkeypatch, error_rate):
    """A segment nothing reads before its end completes in closed form,
    without a walk over its states; a traced run also walks those with
    checkpoints left, for their spans (here every segment has some)."""
    counts = _walks(BASE.with_(error_rate=error_rate), monkeypatch)
    (plans, walked), (traced_plans, traced_walked) = counts[False], counts[True]
    assert plans == traced_plans > 0
    assert traced_walked == traced_plans
    if error_rate:
        # Kills settle the segments they stop, and unfold live siblings.
        assert 0 < walked < plans
    else:
        assert walked == 0


def test_traced_clones_walk_only_what_readers_walk(monkeypatch):
    """Clones take no checkpoints, so tracing walks no plan of theirs:
    only the losers settled at completion and the killed ones are."""
    counts = _walks(SCENARIOS["cloning"][0], monkeypatch)
    (plans, walked), (traced_plans, traced_walked) = counts[False], counts[True]
    assert plans == traced_plans > 0
    assert 0 < traced_walked == walked < plans


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


def _killed_mid_segment(
    monkeypatch, *, traced: bool = False, fold: bool = True
) -> tuple[dict, int]:
    """Kill a lone attempt mid-segment; snapshot its checkpoint chain and
    counters right after the kill settled it."""
    with monkeypatch.context() as patch:
        writes = _record_writes(patch)
        if not fold:
            _refuse_fold(patch)
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
            assert (attempt.plan is not None) == fold
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
    return seen, len(writes)


def test_observer_writes_only_the_retained_checkpoints(monkeypatch):
    untraced, writes = _killed_mid_segment(monkeypatch)
    traced, traced_writes = _killed_mid_segment(monkeypatch, traced=True)
    stepwise, stepwise_writes = _killed_mid_segment(monkeypatch, fold=False)
    assert untraced == traced == stepwise
    assert all(untraced["stored"])
    assert untraced["kv_entries"] == len(untraced["chain"])
    # The stepwise run writes every checkpoint; the folded one, traced or
    # not, only those its chain keeps.
    assert stepwise_writes == stepwise["taken"] > len(stepwise["chain"])
    assert writes == traced_writes == len(untraced["chain"])


#: Runs without a fold-plan reader, with kills, and with node failures
#: and a flush lag (``flush`` spans, lost checkpoints).
OBSERVED = {
    "failure-free": BASE.with_(error_rate=0.0),
    "errors": BASE,
    "node-failures-flush-lag": SCENARIOS["node-failures-flush-lag"][0],
}


def _observed(name: str, monkeypatch, *, fold=True, traced=False) -> dict:
    """Scenario *name* run twice, once straight to its end and once
    stepped through ``run(until=...)``: the ``router.write`` keys of each
    run, after each ``run`` call the retained chains, KV entries,
    checkpoints taken and charges, and at the end each function's charges
    and next checkpoint id."""
    seen: dict = {"writes": [], "steps": []}
    for step_s in (None, 0.7):
        with monkeypatch.context() as patch:
            writes = _record_writes(patch)
            if not fold:
                _refuse_fold(patch)
            platform = CanaryPlatform(
                OBSERVED[name], seed=3, tracer=Tracer() if traced else None
            )
            platform.submit_batch()
            until = 0.0
            while platform.sim.pending:
                if step_s is None:
                    platform.run()
                else:
                    until += step_s
                    platform.run(until=until)
                chains = platform.checkpointer._per_function
                seen["steps"].append((
                    {fid: [(r.checkpoint_id, r.state_index, r.ref, r.created_at)
                           for r in chain] for fid, chain in chains.items()},
                    len(platform.kv),
                    platform.checkpointer.checkpoints_taken,
                    [e.checkpoint_time_s for e in _executions(platform)],
                ))
        seen["writes"].append(writes)
    seen["ids"] = _checkpoint_times(platform)
    return seen


@pytest.mark.parametrize("name", list(OBSERVED))
def test_traced_run_writes_what_untraced_writes(name, monkeypatch):
    """A tracer only observes: it changes no write, chain, KV entry, id,
    count or charge.  Both runs keep the stepwise run's chains."""
    untraced = _observed(name, monkeypatch)
    traced = _observed(name, monkeypatch, traced=True)
    stepwise = _observed(name, monkeypatch, fold=False)
    assert traced == untraced
    assert untraced["steps"] == stepwise["steps"]
    assert untraced["ids"] == stepwise["ids"]
    # The stepwise run writes every checkpoint, the folded ones a subset.
    for folded_keys, stepwise_keys in zip(untraced["writes"], stepwise["writes"]):
        assert set(folded_keys) < set(stepwise_keys)
    assert any(chains for chains, *_ in untraced["steps"])
