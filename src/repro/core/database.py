"""Canary's bookkeeping database (§IV-C-1).

The Core Module maintains five tables: ``worker_info``, ``job_info``,
``function_info``, ``checkpoint_info``, and ``replication_info``.  The paper
stores them in CouchDB/MongoDB; here each is a read-only view with the
paper's schema, built on every read from state the modules already keep
(the cluster's nodes, the platform's jobs and their executions, the
Checkpointing Module's chains, the Runtime Manager's replicas), so tests
can assert cross-table consistency.  Nothing writes a row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

RowSource = Callable[[], Iterable[tuple]]


class View:
    """A read-only keyed table: *source* yields its rows on each read, as
    value tuples in ``fields`` order; keys must be unique."""

    def __init__(
        self, name: str, key_field: str, fields: tuple[str, ...], source: RowSource
    ) -> None:
        if key_field not in fields:
            raise ValueError(f"key {key_field!r} missing from fields of {name}")
        self.name = name
        self.key_field = key_field
        self.fields = fields
        self._source = source

    @property
    def _rows(self) -> dict[Any, dict[str, Any]]:
        rows: dict[Any, dict[str, Any]] = {}
        for values in self._source():
            row = dict(zip(self.fields, values))
            key = row[self.key_field]
            if key in rows:
                raise KeyError(f"duplicate key {key!r} in {self.name}")
            rows[key] = row
        return rows

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, key: Any) -> Optional[dict[str, Any]]:
        return self._rows.get(key)

    def select(
        self, predicate: Optional[Callable[[dict[str, Any]], bool]] = None
    ) -> list[dict[str, Any]]:
        rows = self._rows.values()
        if predicate is None:
            return list(rows)
        return [r for r in rows if predicate(r)]

    def where(self, **equals: Any) -> list[dict[str, Any]]:
        return self.select(
            lambda r: all(r.get(k) == v for k, v in equals.items())
        )


class CanaryDatabase:
    """The five tables of the Core Module, each a view over one row source
    (every source defaults to empty)."""

    def __init__(
        self,
        *,
        worker_rows: RowSource = tuple,
        job_rows: RowSource = tuple,
        function_rows: RowSource = tuple,
        checkpoint_rows: RowSource = tuple,
        replication_rows: RowSource = tuple,
    ) -> None:
        self.worker_info = View(
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
            source=worker_rows,
        )
        self.job_info = View(
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
            source=job_rows,
        )
        self.function_info = View(
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
            source=function_rows,
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
        self.replication_info = View(
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
            source=replication_rows,
        )

    # ------------------------------------------------------------------
    # Consistency checks (used by tests)
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
