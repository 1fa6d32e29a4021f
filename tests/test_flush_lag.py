"""Tests for asynchronous checkpoint flushing (§IV-C-4-b)."""

import pytest

from repro.checkpoint.module import CheckpointingModule
from repro.common.units import mb
from repro.core.canary import CanaryPlatform
from repro.core.database import CanaryDatabase
from repro.core.ids import IdGenerator
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.storage.kvstore import KeyValueStore
from repro.storage.router import CheckpointStorageRouter
from repro.storage.tiers import TierRegistry

from tests.conftest import TINY


def make_module(flush_lag_s):
    router = CheckpointStorageRouter(KeyValueStore(), TierRegistry())
    return CheckpointingModule(router, IdGenerator(), flush_lag_s=flush_lag_s)


def record(module, index, now, node="node-00"):
    rec, _ = module.record_state(
        job_id="j1",
        function_id="f1",
        state_index=index,
        size_bytes=mb(1),
        serialize_overhead_s=0.0,
        now=now,
        node_id=node,
    )
    return rec


class TestFlushLagUnit:
    def test_invalid_lag(self):
        with pytest.raises(ValueError):
            make_module(flush_lag_s=-1.0)

    def test_zero_lag_survives_node_failure(self):
        module = make_module(flush_lag_s=0.0)
        newest = record(module, 0, now=10.0)
        assert module.on_node_failure("node-00", now=10.5) == []
        assert module.latest("f1") is newest

    def test_unflushed_checkpoint_dies_with_node(self):
        module = make_module(flush_lag_s=5.0)
        old = record(module, 0, now=0.0)   # durable at 5.0
        new = record(module, 1, now=10.0)  # durable at 15.0
        lost = module.on_node_failure("node-00", now=11.0)
        assert lost == [new.checkpoint_id]
        # Restore falls back to the older, flushed generation.
        assert module.latest("f1") is old

    def test_flushed_checkpoints_survive(self):
        module = make_module(flush_lag_s=5.0)
        newest = record(module, 0, now=0.0)
        assert module.on_node_failure("node-00", now=100.0) == []
        assert module.latest("f1") is newest

    def test_other_nodes_checkpoints_unaffected(self):
        module = make_module(flush_lag_s=5.0)
        mine = record(module, 0, now=0.0, node="node-01")
        assert module.on_node_failure("node-00", now=1.0) == []
        assert module.latest("f1") is mine

    def test_db_marks_lost_checkpoints_unavailable(self):
        module = make_module(flush_lag_s=5.0)
        db = CanaryDatabase(checkpoint_rows=module.rows)
        rec = record(module, 0, now=0.0)
        assert db.checkpoint_info.get(rec.checkpoint_id)["available"] is True
        module.on_node_failure("node-00", now=1.0)
        row = db.checkpoint_info.get(rec.checkpoint_id)
        assert row["available"] is False
        # The row lives only as long as the chain holds the checkpoint.
        module.drop_function("f1")
        assert db.checkpoint_info.get(rec.checkpoint_id) is None

    def test_evicted_checkpoint_is_not_swept_by_a_node_failure(self):
        module = make_module(flush_lag_s=5.0)
        first = record(module, 0, now=0.0)
        for index in range(1, 12):
            record(module, index, now=0.1 * index)
        assert module.chain_length("f1") < 12
        assert first.checkpoint_id not in module._pending_flush
        lost = module.on_node_failure("node-00", now=1.5)
        assert first.checkpoint_id not in lost
        assert len(lost) == module.chain_length("f1")


class TestFlushLagEndToEnd:
    def run_platform(self, flush_lag_s, *, step_s=None):
        """Run 30 TINY functions; with *step_s*, in steps of that many
        seconds, returning the check results of :meth:`check_tracking`."""
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy="canary",
                error_rate=0.0,
                node_failure_count=1,
                node_failure_window=(6.0, 9.0),
                checkpoint_flush_lag_s=flush_lag_s,
            ),
            seed=6,
        )
        job = platform.submit_job(JobRequest(workload=TINY, num_functions=30))
        if step_s is None:
            platform.run()
            return platform, job
        lost_rows = 0
        until = 0.0
        while not job.done:
            until += step_s
            platform.run(until=until)
            lost_rows += self.check_tracking(platform)
        return platform, job, lost_rows

    @staticmethod
    def check_tracking(platform):
        """Assert flush tracking and the ``checkpoint_info`` view hold only
        live checkpoints; return how many rows are unavailable (lost with
        the node while their chain still holds them)."""
        module = platform.checkpointer
        live = {
            record.checkpoint_id
            for chain in module._per_function.values()
            for record in chain
        }
        assert set(module._pending_flush) <= live
        assert module._lost <= live
        rows = platform.database.checkpoint_info.select()
        assert {row["checkpoint_id"] for row in rows} == live
        assert platform.database.check_referential_integrity() == []
        return sum(not row["available"] for row in rows)

    def test_everything_still_completes(self):
        platform, job = self.run_platform(flush_lag_s=4.0)
        assert job.done
        assert platform.metrics.unrecovered_failures() == []

    def test_flush_tracking_holds_only_live_checkpoints(self):
        platform, job, lost_rows = self.run_platform(
            flush_lag_s=4.0, step_s=0.25
        )
        assert job.done and lost_rows > 0
        self.check_tracking(platform)

    def test_lag_costs_extra_redo_after_node_death(self):
        fast_platform, _ = self.run_platform(flush_lag_s=0.0)
        slow_platform, _ = self.run_platform(flush_lag_s=4.0)
        # Same seed, same node death: the laggy flush loses the newest
        # checkpoints of the dead node's functions, so recovery redoes
        # at least as much work.
        assert (
            slow_platform.metrics.total_recovery_time()
            >= fast_platform.metrics.total_recovery_time()
        )
