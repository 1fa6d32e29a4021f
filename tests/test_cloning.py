"""First-finisher request cloning: spread, teardown hygiene, engine cost.

The cloning strategy (S40) launches every function on ``clones`` distinct
nodes at once and keeps whichever copy finishes first.  These tests pin the
two properties the strategy must never lose: clones actually land on
different nodes, and losing copies are torn down (not leaked) the instant a
winner finishes.  Repeat-run identity is the ``cloning-3`` case of
``tests/test_summary_digests.py``.
"""

from collections import Counter

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import _run_platform, run_scenario
from repro.network.config import NETWORK_PRESETS
from repro.sim.engine import Simulator
from repro.strategies.cloning import CloningConfig

from tests.conftest import run_tiny_job


def test_cloning_config_validation():
    with pytest.raises(ValueError):
        CloningConfig(clones=1)
    with pytest.raises(ValueError):
        CloningConfig(clones=0)
    assert CloningConfig().clones == 2


@pytest.mark.parametrize("strategy", ["canary", "retry", "active-standby"])
def test_cloning_config_rejected_with_other_strategy(strategy):
    with pytest.raises(ValueError, match=repr(strategy)):
        ScenarioConfig(
            workload="graph-bfs",
            strategy=strategy,
            cloning=CloningConfig(clones=3),
        )


def test_cloning_completes_without_checkpoints_or_replicas():
    platform, job = run_tiny_job(strategy="cloning", num_functions=8)
    assert job.done
    summary = platform.summary()
    assert summary.completed == 8
    # Redundancy comes from the clones themselves; the checkpoint and
    # replication machinery must stay cold.
    assert summary.checkpoints_taken == 0
    assert summary.replicas_launched == 0
    assert platform.kv.used_bytes == 0.0


def test_clones_spread_over_distinct_nodes():
    _, job = run_tiny_job(strategy="cloning", num_functions=6, num_nodes=6)
    for execution in job.executions:
        nodes = {a.container.node.node_id for a in execution.attempts}
        assert len(nodes) >= 2, execution.function_id


def test_clone_degree_respected():
    _, job = run_tiny_job(
        strategy="cloning",
        num_functions=4,
        num_nodes=8,
        cloning=CloningConfig(clones=3),
    )
    for execution in job.executions:
        assert len(execution.attempts) >= 3
        nodes = {a.container.node.node_id for a in execution.attempts}
        assert len(nodes) >= 3, execution.function_id


def test_first_finisher_tears_down_losers():
    _, job = run_tiny_job(strategy="cloning", num_functions=6)
    for execution in job.executions:
        assert execution.completed
        assert all(a.done for a in execution.attempts)
        assert execution.live_attempts() == []
        assert execution._pending_requests == []


# ----------------------------------------------------------------------
# Teardown hygiene under churn: errors + node deaths + a real fabric
# ----------------------------------------------------------------------
def _hammer_scenario(strategy):
    return ScenarioConfig(
        workload="graph-bfs",
        strategy=strategy,
        error_rate=0.3,
        refailure_rate=0.0,
        num_functions=24,
        num_nodes=8,
        node_failure_count=2,
        network=NETWORK_PRESETS["10gbe"],
    )


@pytest.mark.parametrize("strategy", ("cloning", "canary"))
def test_no_leaks_after_chaotic_run(strategy):
    """Errors, node deaths, and clone cancellations leave nothing behind."""
    platform = _run_platform(_hammer_scenario(strategy), seed=3)
    summary = platform.summary()
    assert summary.completed == 24
    assert summary.unrecovered == 0
    # Every fabric flow drained or was cancelled with its attempt.
    assert platform.network._active == {}
    # No replica launch token left in flight.
    if platform.replication is not None:
        for kind, pending in platform.replication._pending.items():
            assert pending == {}, (kind, pending)
    # Every attempt (winners, losers, and replacements) is closed.
    for job in platform.jobs.values():
        for execution in job.executions:
            assert all(a.done for a in execution.attempts)
            assert execution._pending_requests == []


def test_cloning_survives_node_deaths():
    """on_sibling_loss replaces lost copies; the job still completes."""
    platform = _run_platform(_hammer_scenario("cloning"), seed=9)
    summary = platform.summary()
    assert summary.completed == 24
    assert summary.unrecovered == 0
    # Cloning writes no checkpoints, so a fully drained run leaves the KV
    # store empty — a non-zero residue means a cancelled clone leaked.
    assert platform.kv.used_bytes == 0.0


# ----------------------------------------------------------------------
# Engine cost
# ----------------------------------------------------------------------
def test_failure_free_clones_on_a_fabric_fold_every_state(monkeypatch):
    """Clones write no checkpoints, so on a fabric each copy still runs
    its states as one folded segment: no per-state engine event."""
    labels = Counter()
    push = Simulator._push

    def counting(self, time, callback, label, seq):
        labels[label.split(":")[0]] += 1
        return push(self, time, callback, label, seq)

    monkeypatch.setattr(Simulator, "_push", counting)
    scenario = ScenarioConfig(
        workload="graph-bfs",
        strategy="cloning",
        cloning=CloningConfig(clones=2),
        error_rate=0.0,
        num_functions=40,
        num_nodes=8,
        network=NETWORK_PRESETS["10gbe"],
    )
    summary = run_scenario(scenario, seed=0)
    assert summary.completed == 40
    assert labels["finish"] >= 40
    assert labels["state"] == 0
