"""Canary's bookkeeping database (§IV-C-1).

The Core Module maintains five tables: ``worker_info``, ``job_info``,
``function_info``, ``checkpoint_info``, and ``replication_info``.  The paper
stores them in CouchDB/MongoDB; here they are in-memory tables with the same
schemas, insert/update/select operations, and per-table row validation so
tests can assert cross-table consistency.  ``checkpoint_info`` is a view
of the Checkpointing Module's chains: a checkpoint has a row while retained.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional


class _Rows:
    """The read side of a table or a view: get, select, where."""

    def __init__(self, name: str, key_field: str, fields: tuple[str, ...]) -> None:
        self.name = name
        self.key_field = key_field
        self.fields = fields
        if key_field not in fields:
            raise ValueError(f"key {key_field!r} missing from fields of {name}")

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, key: Any) -> Optional[dict[str, Any]]:
        row = self._rows.get(key)
        return dict(row) if row is not None else None

    def select(
        self, predicate: Optional[Callable[[dict[str, Any]], bool]] = None
    ) -> list[dict[str, Any]]:
        rows: Iterable[dict[str, Any]] = self._rows.values()
        if predicate is not None:
            rows = (r for r in rows if predicate(r))
        return [dict(r) for r in rows]

    def where(self, **equals: Any) -> list[dict[str, Any]]:
        return self.select(
            lambda r: all(r.get(k) == v for k, v in equals.items())
        )


class Table(_Rows):
    """A minimal keyed table: insert, update, get, select."""

    def __init__(self, name: str, key_field: str, fields: tuple[str, ...]) -> None:
        super().__init__(name, key_field, fields)
        self._field_set = frozenset(fields)
        self._rows = {}

    def insert(self, row: dict[str, Any]) -> None:
        if tuple(row) == self.fields:
            # Fast path: the row already carries every field, in order.
            key = row[self.key_field]
            if key in self._rows:
                raise KeyError(f"duplicate key {key!r} in {self.name}")
            self._rows[key] = dict(row)
            return
        if not self._field_set.issuperset(row):
            self._raise_unknown(row)
        if self.key_field not in row:
            raise KeyError(f"row for {self.name} missing key {self.key_field!r}")
        key = row[self.key_field]
        if key in self._rows:
            raise KeyError(f"duplicate key {key!r} in {self.name}")
        full = {f: row.get(f) for f in self.fields}
        self._rows[key] = full

    def update(self, key: Any, **changes: Any) -> None:
        row = self._rows.get(key)
        if row is None:
            raise KeyError(f"no row {key!r} in {self.name}")
        if not self._field_set.issuperset(changes):
            self._raise_unknown(changes)
        row.update(changes)

    def set_field(self, key: Any, field: str, value: Any) -> None:
        """``update(key, **{field: value})`` without building a kwargs dict."""
        row = self._rows.get(key)
        if row is None:
            raise KeyError(f"no row {key!r} in {self.name}")
        if field not in self._field_set:
            self._raise_unknown((field,))
        row[field] = value

    def _raise_unknown(self, names: Iterable[str]) -> None:
        unknown = set(names) - self._field_set
        raise KeyError(f"unknown fields for {self.name}: {sorted(unknown)}")

    def upsert(self, row: dict[str, Any]) -> None:
        key = row.get(self.key_field)
        if key in self._rows:
            self.update(key, **{k: v for k, v in row.items() if k != self.key_field})
        else:
            self.insert(row)

    def delete(self, key: Any) -> bool:
        return self._rows.pop(key, None) is not None


class View(_Rows):
    """A read-only table: *source* yields its rows on each read, as value
    tuples in ``fields`` order."""

    def __init__(
        self,
        name: str,
        key_field: str,
        fields: tuple[str, ...],
        source: Callable[[], Iterable[tuple]],
    ) -> None:
        super().__init__(name, key_field, fields)
        self._source = source

    @property
    def _rows(self) -> dict[Any, dict[str, Any]]:
        rows = (dict(zip(self.fields, values)) for values in self._source())
        return {row[self.key_field]: row for row in rows}


class CanaryDatabase:
    """The five tables created and maintained by the Core Module;
    *checkpoint_rows* builds ``checkpoint_info`` (``CheckpointingModule.rows``)."""

    def __init__(self, checkpoint_rows: Callable[[], Iterable[tuple]] = tuple) -> None:
        self.worker_info = Table(
            "worker_info",
            key_field="worker_id",
            fields=(
                "worker_id",
                "role",
                "cpu_model",
                "memory_bytes",
                "container_slots",
                "rack",
                "alive",
            ),
        )
        self.job_info = Table(
            "job_info",
            key_field="job_id",
            fields=(
                "job_id",
                "workload",
                "num_functions",
                "runtime",
                "checkpoint_interval",
                "replication_strategy",
                "state",
                "submitted_at",
                "completed_at",
            ),
        )
        self.function_info = Table(
            "function_info",
            key_field="function_id",
            fields=(
                "function_id",
                "job_id",
                "runtime",
                "worker_id",
                "state",
                "attempts",
                "current_state_index",
            ),
        )
        self.checkpoint_info = View(
            "checkpoint_info",
            key_field="checkpoint_id",
            fields=(
                "checkpoint_id",
                "job_id",
                "function_id",
                "state_index",
                "size_bytes",
                "location",
                "created_at",
                "available",
            ),
            source=checkpoint_rows,
        )
        self.replication_info = Table(
            "replication_info",
            key_field="replica_id",
            fields=(
                "replica_id",
                "job_id",
                "runtime",
                "worker_id",
                "container_id",
                "state",
                "created_at",
            ),
        )

    # ------------------------------------------------------------------
    # Consistency checks (used by tests and the platform's self-audit)
    # ------------------------------------------------------------------
    def check_referential_integrity(self) -> list[str]:
        """Return a list of violations (empty when consistent)."""
        problems: list[str] = []
        job_ids = {r["job_id"] for r in self.job_info.select()}
        worker_ids = {r["worker_id"] for r in self.worker_info.select()}
        fn_ids = set()
        for row in self.function_info.select():
            fn_ids.add(row["function_id"])
            if row["job_id"] not in job_ids:
                problems.append(
                    f"function {row['function_id']} references missing job "
                    f"{row['job_id']}"
                )
            if row["worker_id"] is not None and row["worker_id"] not in worker_ids:
                problems.append(
                    f"function {row['function_id']} references missing worker "
                    f"{row['worker_id']}"
                )
        for row in self.checkpoint_info.select():
            if row["job_id"] not in job_ids:
                problems.append(
                    f"checkpoint {row['checkpoint_id']} references missing "
                    f"job {row['job_id']}"
                )
            if row["function_id"] not in fn_ids:
                problems.append(
                    f"checkpoint {row['checkpoint_id']} references missing "
                    f"function {row['function_id']}"
                )
        for row in self.replication_info.select():
            if row["job_id"] is not None and row["job_id"] not in job_ids:
                problems.append(
                    f"replica {row['replica_id']} references missing job "
                    f"{row['job_id']}"
                )
            if row["worker_id"] not in worker_ids:
                problems.append(
                    f"replica {row['replica_id']} references missing worker "
                    f"{row['worker_id']}"
                )
        return problems
