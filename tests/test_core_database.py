"""Unit tests for the five-table Canary database: read-only views."""

import pytest

from repro.checkpoint.module import CheckpointingModule
from repro.common.units import mb
from repro.core.database import CanaryDatabase, View
from repro.core.ids import IdGenerator
from repro.storage.kvstore import KeyValueStore
from repro.storage.router import CheckpointStorageRouter
from repro.storage.tiers import TierRegistry


class TestTable:
    def make(self, rows):
        return View("t", key_field="id", fields=("id", "a", "b"), source=lambda: rows)

    def test_get_returns_copy(self):
        t = self.make([(1, "x", None)])
        row = t.get(1)
        assert row == {"id": 1, "a": "x", "b": None}
        row["a"] = "mutated"
        assert t.get(1)["a"] == "x"

    def test_source_read_on_every_read(self):
        rows = [(1, "x", None)]
        t = self.make(rows)
        assert len(t) == 1
        rows.append((2, "y", None))
        assert len(t) == 2
        assert t.get(2)["a"] == "y"

    def test_duplicate_key_rejected(self):
        t = self.make([(1, "x", None), (1, "y", None)])
        with pytest.raises(KeyError, match="duplicate key 1 in t"):
            t.select()

    def test_where(self):
        t = self.make([(1, "x", None), (2, "y", None), (3, "x", None)])
        assert {r["id"] for r in t.where(a="x")} == {1, 3}

    def test_key_must_be_a_field(self):
        with pytest.raises(ValueError):
            View("t", key_field="nope", fields=("id",), source=tuple)


def worker(worker_id):
    return (worker_id, "invoker", "std", 1.0, 4, 0, True)


def job(job_id):
    return (job_id, "w", 1, "python", 1, "canary", "running", 0.0, None)


def function(function_id, job_id, worker_id=None):
    return (function_id, job_id, "python", worker_id, "running", 1, 0)


class TestCanaryDatabase:
    def test_five_tables_exist(self):
        db = CanaryDatabase()
        assert set(vars(db)) == {
            "worker_info",
            "job_info",
            "function_info",
            "checkpoint_info",
            "replication_info",
        }

    def test_integrity_clean_when_empty(self):
        assert CanaryDatabase().check_referential_integrity() == []

    def test_integrity_flags_orphan_function(self):
        db = CanaryDatabase(
            function_rows=lambda: [function("f1", "missing-job")]
        )
        problems = db.check_referential_integrity()
        assert any("missing job" in p for p in problems)

    def test_integrity_flags_orphan_checkpoint(self):
        db = CanaryDatabase(
            job_rows=lambda: [job("j1")],
            checkpoint_rows=lambda: [
                ("c1", "j1", "ghost", 0, 1024.0, "kv", 0.0, True)
            ],
        )
        problems = db.check_referential_integrity()
        assert any("missing" in p and "function" in p for p in problems)

    def test_integrity_flags_replica_on_unknown_worker(self):
        db = CanaryDatabase(
            job_rows=lambda: [job("j1")],
            replication_rows=lambda: [
                ("r1", "j1", "python", "ghost-node", "c0", "warm", 0.0)
            ],
        )
        problems = db.check_referential_integrity()
        assert any("missing worker" in p for p in problems)

    def test_duplicate_key_raises_on_read(self):
        db = CanaryDatabase(
            worker_rows=lambda: [worker("n0")],
            job_rows=lambda: [job("j1")],
            function_rows=lambda: [function("f1", "j1"), function("f1", "j1")],
        )
        assert len(db.job_info) == 1
        with pytest.raises(KeyError, match="duplicate key 'f1' in function_info"):
            db.check_referential_integrity()

    def test_checkpoint_rows_in_field_order(self):
        """The ``checkpoint_info`` view builds its rows in field order."""
        module = CheckpointingModule(
            CheckpointStorageRouter(KeyValueStore(), TierRegistry()),
            IdGenerator(),
        )
        db = CanaryDatabase(checkpoint_rows=module.rows)
        record, _ = module.record_state(
            job_id="j",
            function_id="f",
            state_index=0,
            size_bytes=mb(1),
            serialize_overhead_s=0.0,
            now=1.0,
        )
        row = db.checkpoint_info.get(record.checkpoint_id)
        assert tuple(row) == db.checkpoint_info.fields
        assert row["available"] is True and row["location"] == "kv"
