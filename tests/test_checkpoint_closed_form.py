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

from repro.core.canary import CanaryPlatform
from repro.storage.router import CheckpointStorageRouter
from repro.trace.tracer import Tracer

from tests.test_state_fold_exact import BASE, SCENARIOS, _refuse_fold


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


def _checkpoint_times(platform: CanaryPlatform) -> dict[str, tuple]:
    return {
        fid: (trace.checkpoints, trace.checkpoint_time_s)
        for fid, trace in platform.metrics.traces.items()
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


def test_next_checkpoint_id_matches_stepwise(monkeypatch):
    folded, writes = _run(BASE, monkeypatch)
    stepwise, stepwise_writes = _run(BASE, monkeypatch, fold=False)
    assert folded.metrics.failures
    # Failures materialise some checkpoints; completed segments skip the rest.
    taken = folded.checkpointer.checkpoints_taken
    assert 0 < writes < taken == stepwise_writes
    assert stepwise.checkpointer.checkpoints_taken == taken
    for fid in folded.metrics.traces:
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
