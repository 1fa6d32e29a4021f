"""Unit tests for the five-table Canary database."""

import pytest

from repro.core.database import CanaryDatabase, Table


class TestTable:
    def make(self):
        return Table("t", key_field="id", fields=("id", "a", "b"))

    def test_insert_and_get(self):
        t = self.make()
        t.insert({"id": 1, "a": "x"})
        assert t.get(1) == {"id": 1, "a": "x", "b": None}

    def test_get_returns_copy(self):
        t = self.make()
        t.insert({"id": 1, "a": "x"})
        row = t.get(1)
        row["a"] = "mutated"
        assert t.get(1)["a"] == "x"

    def test_duplicate_key_rejected(self):
        t = self.make()
        t.insert({"id": 1})
        with pytest.raises(KeyError):
            t.insert({"id": 1})

    def test_unknown_field_rejected(self):
        t = self.make()
        with pytest.raises(KeyError):
            t.insert({"id": 1, "zzz": 2})
        t.insert({"id": 1})
        with pytest.raises(KeyError):
            t.update(1, zzz=2)

    def test_unknown_field_message_names_sorted_unknowns(self):
        t = self.make()
        with pytest.raises(KeyError, match=r"unknown fields for t: \['y', 'z'\]"):
            t.insert({"id": 1, "z": 2, "a": 0, "y": 3})
        t.insert({"id": 1, "a": "x"})
        with pytest.raises(KeyError, match=r"unknown fields for t: \['zzz'\]"):
            t.update(1, a="changed", zzz=2)
        # A rejected update changes nothing.
        assert t.get(1) == {"id": 1, "a": "x", "b": None}

    def test_missing_key_rejected(self):
        with pytest.raises(KeyError):
            self.make().insert({"a": 1})

    def test_update_missing_row_rejected(self):
        with pytest.raises(KeyError):
            self.make().update(99, a=1)

    def test_upsert(self):
        t = self.make()
        t.upsert({"id": 1, "a": "x"})
        t.upsert({"id": 1, "a": "y"})
        assert t.get(1)["a"] == "y"
        assert len(t) == 1

    def test_where(self):
        t = self.make()
        t.insert({"id": 1, "a": "x"})
        t.insert({"id": 2, "a": "y"})
        t.insert({"id": 3, "a": "x"})
        assert {r["id"] for r in t.where(a="x")} == {1, 3}

    def test_delete(self):
        t = self.make()
        t.insert({"id": 1})
        assert t.delete(1)
        assert not t.delete(1)

    def test_key_must_be_a_field(self):
        with pytest.raises(ValueError):
            Table("t", key_field="nope", fields=("id",))


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
        db = CanaryDatabase()
        db.function_info.insert(
            {"function_id": "f1", "job_id": "missing-job"}
        )
        problems = db.check_referential_integrity()
        assert any("missing job" in p for p in problems)

    def test_integrity_flags_orphan_checkpoint(self):
        db = CanaryDatabase(
            checkpoint_rows=lambda: [
                ("c1", "j1", "ghost", 0, 1024.0, "kv", 0.0, True)
            ]
        )
        db.job_info.insert({"job_id": "j1"})
        problems = db.check_referential_integrity()
        assert any("missing" in p and "function" in p for p in problems)

    def test_integrity_flags_replica_on_unknown_worker(self):
        db = CanaryDatabase()
        db.job_info.insert({"job_id": "j1"})
        db.replication_info.insert(
            {"replica_id": "r1", "job_id": "j1", "worker_id": "ghost-node"}
        )
        problems = db.check_referential_integrity()
        assert any("missing worker" in p for p in problems)
