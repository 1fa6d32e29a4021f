"""Unit tests for the Checkpointing Module (Algorithm 1) and its policies."""

import pytest

from repro.checkpoint.module import CheckpointingModule
from repro.checkpoint.policy import CheckpointPolicy, RetentionPolicy
from repro.common.units import MiB, mb
from repro.core.database import CanaryDatabase
from repro.core.ids import IdGenerator
from repro.storage.kvstore import KeyValueStore
from repro.storage.router import CheckpointStorageRouter
from repro.storage.tiers import TierRegistry


def make_module(policy=None, db_limit=64 * MiB, **router_kwargs):
    kv = KeyValueStore(db_limit_bytes=db_limit)
    router = CheckpointStorageRouter(kv, TierRegistry(), **router_kwargs)
    module = CheckpointingModule(router, IdGenerator(), policy=policy)
    db = CanaryDatabase(
        job_rows=lambda: [("j1",) + (None,) * 8],
        function_rows=lambda: [("f1", "j1") + (None,) * 5],
        checkpoint_rows=module.rows,
    )
    return module, db


def record_n(module, n, *, function_id="f1", size=mb(1), start=0):
    records = []
    for i in range(start, start + n):
        record, _ = module.record_state(
            job_id="j1",
            function_id=function_id,
            state_index=i,
            size_bytes=size,
            serialize_overhead_s=0.01,
            now=float(i),
            state_duration_s=5.0,
        )
        records.append(record)
    return records


class TestRetentionPolicy:
    def test_default_initial_is_three(self):
        policy = RetentionPolicy()
        assert (
            policy.target_n(
                checkpoint_size_bytes=mb(1),
                state_period_s=5.0,
                db_limit_bytes=mb(64),
            )
            == 3
        )

    def test_large_payloads_keep_fewer(self):
        policy = RetentionPolicy()
        n = policy.target_n(
            checkpoint_size_bytes=mb(200),
            state_period_s=5.0,
            db_limit_bytes=mb(64),
        )
        assert n == 2

    def test_fast_small_states_keep_more(self):
        policy = RetentionPolicy()
        n = policy.target_n(
            checkpoint_size_bytes=mb(1),
            state_period_s=0.3,
            db_limit_bytes=mb(64),
        )
        assert n == 5

    def test_static_policy_ignores_profile(self):
        policy = RetentionPolicy(dynamic=False)
        n = policy.target_n(
            checkpoint_size_bytes=mb(500),
            state_period_s=0.1,
            db_limit_bytes=mb(64),
        )
        assert n == policy.initial_n

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            RetentionPolicy(initial_n=1, min_n=2, max_n=8)


class TestCheckpointPolicy:
    def test_interval_cadence(self):
        policy = CheckpointPolicy()
        hits = [i for i in range(9) if policy.should_checkpoint(i, 3)]
        assert hits == [2, 5, 8]


class TestCheckpointingModule:
    def test_record_returns_positive_duration(self):
        module, _ = make_module()
        _, duration = module.record_state(
            job_id="j1",
            function_id="f1",
            state_index=0,
            size_bytes=mb(1),
            serialize_overhead_s=0.05,
            now=1.0,
        )
        assert duration > 0.05  # serialize + storage write

    def test_latest_returns_newest(self):
        module, _ = make_module()
        records = record_n(module, 3)
        assert module.latest("f1") is records[-1]

    def test_latest_none_without_checkpoints(self):
        module, _ = make_module()
        assert module.latest("ghost") is None

    def test_retention_evicts_oldest(self):
        module, db = make_module()
        record_n(module, 6)
        assert module.chain_length("f1") == 3  # default retention
        # An evicted checkpoint has no row: the view holds the three newest.
        rows = db.checkpoint_info.select()
        assert [r["state_index"] for r in rows] == [3, 4, 5]
        assert all(r["available"] for r in rows)
        assert len(db.checkpoint_info) == 3

    def test_db_rows_match_records(self):
        module, db = make_module()
        records = record_n(module, 2)
        for record in records:
            row = db.checkpoint_info.get(record.checkpoint_id)
            assert row["function_id"] == "f1"
            assert row["state_index"] == record.state_index
            assert row["location"] == record.ref.tier_name
            assert row["created_at"] == record.created_at
            assert row["available"] is True
        assert db.checkpoint_info.where(state_index=1) == [
            db.checkpoint_info.get(records[1].checkpoint_id)
        ]
        assert db.check_referential_integrity() == []

    def test_large_checkpoint_spills(self):
        module, db = make_module()
        record, _ = module.record_state(
            job_id="j1",
            function_id="f1",
            state_index=0,
            size_bytes=mb(200),
            serialize_overhead_s=0.1,
            now=0.0,
        )
        assert record.ref.tier_name != "kv"
        assert db.checkpoint_info.get(record.checkpoint_id)["location"] != "kv"

    def test_restore_time_positive(self):
        module, _ = make_module()
        (record,) = record_n(module, 1)
        assert module.restore_time(record) > 0

    def test_node_failure_falls_back_to_older_generation(self):
        # The newest checkpoint spills to a node-local tier and dies with
        # its node; restore must fall back to the older inline generation.
        node = "node-00"
        module_local, db = make_module()
        first, _ = module_local.record_state(
            job_id="j1", function_id="f1", state_index=0,
            size_bytes=mb(1), serialize_overhead_s=0.0, now=0.0,
        )
        second, _ = module_local.record_state(
            job_id="j1", function_id="f1", state_index=1,
            size_bytes=mb(200), serialize_overhead_s=0.0, now=1.0,
            node_id=node,
        )
        tier = module_local.router.tiers.get(second.ref.tier_name)
        if tier.survives_node_failure:
            pytest.skip("spill landed on durable tier in this config")
        lost = module_local.on_node_failure(node)
        assert second.checkpoint_id in lost
        fallback = module_local.latest("f1")
        assert fallback is first
        # The lost checkpoint keeps its row, unavailable, while the chain
        # still holds it.
        assert db.checkpoint_info.get(second.checkpoint_id)["available"] is False
        assert db.checkpoint_info.get(first.checkpoint_id)["available"] is True

    def test_drop_function_releases_everything(self):
        module, db = make_module()
        record_n(module, 3)
        module.drop_function("f1")
        assert module.chain_length("f1") == 0
        assert module.latest("f1") is None
        # Dropped checkpoints leave no row behind.
        assert db.checkpoint_info.select() == []
        assert module.router.kv.used_bytes == 0.0

    def test_set_interval_overrides_default(self):
        module, _ = make_module()
        module.set_interval("f1", 4)
        hits = [i for i in range(8) if module.should_checkpoint("f1", i)]
        assert hits == [3, 7]
        with pytest.raises(ValueError):
            module.set_interval("f1", 0)
