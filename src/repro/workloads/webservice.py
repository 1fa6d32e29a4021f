"""Real web-service workload: front-end requests against a query engine.

The paper's web workload serves 50 requests, each composed of five queries
against PostgreSQL, checkpointing queries+responses after each request.
The substrate here is a small in-memory relational query engine (the
PostgreSQL substitution); the workload wraps it with the same
request/query/checkpoint structure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.executor.context import CheckpointContext


class QueryEngine:
    """Dict-backed relational tables with filtered selects and aggregates."""

    def __init__(self) -> None:
        self._tables: dict[str, list[dict[str, Any]]] = {}

    def create_table(self, name: str, rows: list[dict[str, Any]]) -> None:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        self._tables[name] = [dict(r) for r in rows]

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def select(
        self,
        table: str,
        where: Optional[Callable[[dict[str, Any]], bool]] = None,
        *,
        limit: Optional[int] = None,
    ) -> list[dict[str, Any]]:
        rows = self._tables.get(table)
        if rows is None:
            raise KeyError(f"no table {table!r}")
        out = [dict(r) for r in rows if where is None or where(r)]
        return out[:limit] if limit is not None else out

    def count(self, table: str, where=None) -> int:
        return len(self.select(table, where))

    def sum(self, table: str, column: str, where=None) -> float:
        return float(sum(r[column] for r in self.select(table, where)))


def build_store_database(*, num_orders: int = 500, seed: int = 0) -> QueryEngine:
    """A small web-shop schema: customers, orders."""
    rng = np.random.default_rng(seed)
    engine = QueryEngine()
    engine.create_table(
        "customers",
        [
            {"id": i, "region": f"region-{i % 7}", "tier": int(rng.integers(3))}
            for i in range(100)
        ],
    )
    engine.create_table(
        "orders",
        [
            {
                "id": i,
                "customer_id": int(rng.integers(100)),
                "amount": float(np.round(rng.gamma(2.0, 30.0), 2)),
                "status": ["new", "paid", "shipped"][int(rng.integers(3))],
            }
            for i in range(num_orders)
        ],
    )
    return engine


@dataclass
class WebServiceResult:
    requests: int
    responses_digest: str
    work_units: int  # requests actually served


def make_web_service(
    *,
    requests: int = 20,
    queries_per_request: int = 5,
    seed: int = 0,
):
    """Build ``fn(ctx) -> WebServiceResult``: requests of 5 queries each,
    checkpointing the accumulated responses after each request."""
    if requests < 1:
        raise ValueError("requests must be at least 1")

    def serve(ctx: CheckpointContext) -> WebServiceResult:
        engine = build_store_database(seed=seed)
        digest = hashlib.sha256()
        responses: list[str] = []
        start = 0
        work_units = 0

        restored = ctx.restore()
        if restored is not None:
            last_request, payload = restored
            start = last_request + 1
            responses = list(payload["responses"])

        # Query parameters are deterministic per request index, so a resumed
        # run issues exactly the queries the failed one would have.
        for request_index in range(start, requests):
            req_rng = np.random.default_rng((seed << 20) ^ request_index)
            parts: list[str] = []
            for _ in range(queries_per_request):
                customer = int(req_rng.integers(100))
                status = ["new", "paid", "shipped"][int(req_rng.integers(3))]
                total = engine.sum(
                    "orders",
                    "amount",
                    where=lambda r: r["customer_id"] == customer
                    and r["status"] == status,
                )
                parts.append(f"{customer}:{status}:{total:.2f}")
            responses.append("|".join(parts))
            work_units += 1
            ctx.save(request_index, {"responses": responses})

        for response in responses:
            digest.update(response.encode())
        return WebServiceResult(
            requests=requests,
            responses_digest=digest.hexdigest(),
            work_units=work_units,
        )

    return serve
