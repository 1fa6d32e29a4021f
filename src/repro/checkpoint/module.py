"""The Checkpointing Module: Algorithm 1 plus restore queries.

For each registered state the module (Algorithm 1):

1. builds the checkpoint payload (state + critical data, or the
   user-provided explicit checkpoint);
2. routes it — inline into the KV store when it fits ``db_limit``, else
   spilled to the fastest tier with only ``{ckpt_name, ckpt_loc}`` recorded;
3. evicts the oldest checkpoint when the function exceeds its retention
   threshold ``ckpt_thresh`` (latest-n);
4. shows ``{job_id, fn_id, ckpt_id, ckpt}`` in the database's
   ``checkpoint_info`` view while it retains the checkpoint (``rows``).

Restores return the newest *available* checkpoint — a checkpoint whose
payload died with a node (non-shared tier) is skipped in favour of an older
surviving one, which is exactly the shared-storage argument of §V-D-6.
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.checkpoint.policy import CheckpointPolicy
from repro.checkpoint.records import CheckpointRecord
from repro.core.ids import IdGenerator
from repro.storage.router import CheckpointStorageRouter
from repro.trace.tracer import NULL_TRACER, NullTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import FlowHandle, FlowNetwork

#: Checkpoint after every state (implicit per-state checkpointing) unless
#: the job or the S40 adaptive controller sets an interval.
DEFAULT_INTERVAL = 1


class CheckpointingModule:
    """Stores, retains, and restores function checkpoints."""

    def __init__(
        self,
        router: CheckpointStorageRouter,
        ids: IdGenerator,
        *,
        policy: CheckpointPolicy | None = None,
        flush_lag_s: float = 0.0,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        """
        Args:
            flush_lag_s: Models §IV-C-4-b's asynchronous flush — a
                checkpoint written on a node only becomes durable against
                that node's failure after this lag.  0 (default) means the
                replicated write path is synchronous (Ignite replicated
                caching mode).
        """
        if flush_lag_s < 0:
            raise ValueError("flush_lag_s must be non-negative")
        self.router = router
        self.ids = ids
        self.policy = policy or CheckpointPolicy()
        self.flush_lag_s = flush_lag_s
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._per_function: dict[str, collections.deque[CheckpointRecord]] = {}
        self._effective_interval: dict[str, int] = {}
        self._global_interval: Optional[int] = None
        #: Called with a function id (``set_interval``) or None
        #: (``global_interval``) just before a cadence changes; the
        #: platform puts folded attempts back on per-state events there.
        self.on_cadence_change: Callable[[Optional[str]], None] = (
            lambda function_id: None
        )
        # checkpoint_id -> (home node, time it becomes durable), and the
        # ids lost with a node.  Both hold only checkpoints still in some
        # function's chain: eviction and ``drop_function`` discard ids.
        self._pending_flush: dict[str, tuple[str, float]] = {}
        self._lost: set[str] = set()
        # (size, state period, db_limit) -> retention.target_n
        self._target_n: dict[tuple[float, float, float], int] = {}
        # statistics
        self.checkpoints_taken = 0

    # ------------------------------------------------------------------
    # Cadence
    # ------------------------------------------------------------------
    @property
    def global_interval(self) -> Optional[int]:
        """Fleet-wide interval override (S40 adaptive controller); None
        defers to ``DEFAULT_INTERVAL``.  Per-function pins always win."""
        return self._global_interval

    @global_interval.setter
    def global_interval(self, interval: Optional[int]) -> None:
        self.on_cadence_change(None)
        self._global_interval = interval

    def effective_interval(self, function_id: str) -> int:
        pinned = self._effective_interval.get(function_id)
        if pinned is not None:
            return pinned
        if self._global_interval is not None:
            return self._global_interval
        return DEFAULT_INTERVAL

    def set_interval(self, function_id: str, interval: int) -> None:
        """Pin a function's checkpoint interval (job-level override)."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.on_cadence_change(function_id)
        self._effective_interval[function_id] = interval

    def should_checkpoint(self, function_id: str, state_index: int) -> bool:
        return self.policy.should_checkpoint(
            state_index, self.effective_interval(function_id)
        )

    # ------------------------------------------------------------------
    # Algorithm 1: record a state
    # ------------------------------------------------------------------
    def record_state(
        self,
        *,
        job_id: str,
        function_id: str,
        state_index: int,
        size_bytes: float,
        serialize_overhead_s: float,
        now: float,
        node_id: Optional[str] = None,
        state_duration_s: float = 0.0,
    ) -> tuple[CheckpointRecord, float]:
        """Checkpoint one completed state; return (record, time charged).

        The returned duration is ``ckp_i`` of Eq. 2: serialization plus the
        storage write (the asynchronous flush to shared storage is off the
        critical path and not charged).  *now* is the state's end, which
        is earlier than the clock when a folded state boundary is
        materialised; the spans count as recorded at *now*.
        """
        record, write_time = self._commit(
            job_id,
            function_id,
            state_index,
            size_bytes,
            now,
            node_id,
            state_duration_s,
        )
        tracer = self.tracer
        if self.flush_lag_s > 0 and node_id is not None:
            self._pending_flush[record.checkpoint_id] = (
                node_id,
                now + self.flush_lag_s,
            )
            if tracer.enabled:
                tracer.instant(
                    "flush",
                    f"flush:{record.checkpoint_id}",
                    t=now,
                    duration=self.flush_lag_s,
                    recorded_at=now,
                    node=node_id,
                    checkpoint=record.checkpoint_id,
                    bytes=size_bytes,
                )
        charge = serialize_overhead_s + write_time
        if tracer.enabled:
            tracer.instant(
                "checkpoint_write",
                f"ckpt:{function_id}:{state_index}",
                t=now,
                duration=charge,
                recorded_at=now,
                function=function_id,
                state_index=state_index,
                tier=record.ref.tier_name,
                bytes=size_bytes,
                **({"node": node_id} if node_id is not None else {}),
            )
        return record, charge

    def record_state_async(
        self,
        *,
        network: "FlowNetwork",
        job_id: str,
        function_id: str,
        state_index: int,
        size_bytes: float,
        serialize_overhead_s: float,
        now: float,
        node_id: Optional[str] = None,
        state_duration_s: float = 0.0,
        on_done: Callable[[CheckpointRecord, float], None],
    ) -> tuple[CheckpointRecord, "FlowHandle"]:
        """Network-modeled :meth:`record_state`: the write is a fabric flow.

        Bookkeeping (record, retention) commits up front,
        exactly like the legacy path; the *charge* is a flow on the fabric
        whose duration depends on link contention.  ``on_done(record,
        elapsed)`` fires when the write lands; cancelling the returned
        handle (attempt death) abandons the charge, not the record.
        """
        record, _ = self._commit(
            job_id,
            function_id,
            state_index,
            size_bytes,
            now,
            node_id,
            state_duration_s,
        )

        def _written() -> None:
            elapsed = network.sim.now - now
            # Cancelled writes (attempt death) leave no checkpoint_write
            # span; the fabric's cancelled network_flow span records them.
            if self.tracer.enabled:
                self.tracer.instant(
                    "checkpoint_write",
                    f"ckpt:{function_id}:{state_index}",
                    t=now,
                    duration=elapsed,
                    function=function_id,
                    state_index=state_index,
                    tier=record.ref.tier_name,
                    bytes=size_bytes,
                    **({"node": node_id} if node_id is not None else {}),
                )
            on_done(record, elapsed)

        handle = network.write_checkpoint(
            tier_name=record.ref.tier_name,
            node_id=node_id,
            size_bytes=size_bytes,
            on_complete=_written,
            extra_latency_s=serialize_overhead_s,
            label=f"ckpt:{function_id}:{state_index}",
        )
        if self.flush_lag_s > 0 and node_id is not None:
            self._start_flush(
                network, record.checkpoint_id, node_id, size_bytes, now
            )
        return record, handle

    def _commit(
        self,
        job_id: str,
        function_id: str,
        state_index: int,
        size_bytes: float,
        now: float,
        node_id: Optional[str],
        state_duration_s: float,
        /,
    ) -> tuple[CheckpointRecord, float]:
        """Shared bookkeeping of Algorithm 1 (route, retain).

        Positional-only: it runs once per checkpointed state.
        """
        checkpoint_id = self.ids.checkpoint_id(function_id)
        ref, write_time = self.router.write(
            checkpoint_id, None, size_bytes=size_bytes, node_id=node_id
        )
        record = CheckpointRecord(
            checkpoint_id=checkpoint_id,
            job_id=job_id,
            function_id=function_id,
            state_index=state_index,
            size_bytes=size_bytes,
            ref=ref,
            created_at=now,
        )
        chain = self._per_function.get(function_id)
        if chain is None:
            chain = self._per_function[function_id] = collections.deque()
        chain.append(record)
        self._evict(chain, state_duration_s)
        self.checkpoints_taken += 1
        return record, write_time

    def retained_of(
        self, count: int, size_bytes: float, state_duration_s: float
    ) -> int:
        """How many of *count* checkpoints recorded back to back survive the
        evictions of their own ``record_state`` calls (the newest ones)."""
        return min(count, self._retention_depth(size_bytes, state_duration_s or 1.0))

    def count_unwritten(self, function_id: str, count: int) -> None:
        """Take *count* checkpoints that nothing can read (their chain is
        dropped next, or they are evicted before anything reads it) in
        closed form: ids and ``checkpoints_taken`` advance; the store, the
        router and the chain are not touched."""
        self.ids.skip_checkpoint_ids(function_id, count)
        self.checkpoints_taken += count

    def _start_flush(
        self,
        network: "FlowNetwork",
        checkpoint_id: str,
        node_id: str,
        size_bytes: float,
        now: float,
    ) -> None:
        """Model the asynchronous flush as a background fabric flow.

        The checkpoint becomes durable when the copy lands (never earlier
        than the configured lag); if the node dies first, the flow is
        cancelled by the fabric and the entry stays pending → lost.
        """
        self._pending_flush[checkpoint_id] = (node_id, float("inf"))

        def _flushed() -> None:
            self.tracer.instant(
                "flush",
                f"flush:{checkpoint_id}",
                t=now,
                duration=network.sim.now - now,
                node=node_id,
                checkpoint=checkpoint_id,
                bytes=size_bytes,
            )
            if checkpoint_id in self._pending_flush:
                self._pending_flush[checkpoint_id] = (
                    node_id,
                    max(now + self.flush_lag_s, network.sim.now),
                )

        network.flush_copy(
            node_id=node_id,
            size_bytes=size_bytes,
            on_complete=_flushed,
            label=f"flush:{checkpoint_id}",
        )

    def _retention_depth(
        self, size_bytes: float, state_period_s: float
    ) -> int:
        """``retention.target_n`` for this profile, memoised per input: how
        many of a function's newest checkpoints its chain keeps."""
        db_limit = self.router.kv.db_limit_bytes
        key = (size_bytes, state_period_s, db_limit)
        depth = self._target_n.get(key)
        if depth is None:
            depth = self._target_n[key] = self.policy.retention.target_n(
                checkpoint_size_bytes=size_bytes,
                state_period_s=state_period_s,
                db_limit_bytes=db_limit,
            )
        return depth

    def _evict(self, chain: collections.deque, state_duration_s: float) -> None:
        """Drop oldest checkpoints beyond the (dynamic) retention depth."""
        threshold = self._retention_depth(
            chain[-1].size_bytes, state_duration_s or 1.0
        )
        while len(chain) > threshold:
            oldest = chain.popleft()
            self.router.delete(oldest.ref)
            self._retire(oldest.checkpoint_id)

    def _retire(self, checkpoint_id: str) -> None:
        """Stop tracking the flush of a released checkpoint."""
        if self.flush_lag_s > 0:
            self._pending_flush.pop(checkpoint_id, None)
            self._lost.discard(checkpoint_id)

    # ------------------------------------------------------------------
    # Restore path
    # ------------------------------------------------------------------
    def latest(
        self, function_id: str, *, healthy_only: bool = False
    ) -> Optional[CheckpointRecord]:
        """Newest checkpoint whose payload is still fetchable.

        With ``healthy_only`` records on a refusing (browned-out) tier are
        skipped — the graceful-degradation path after a restore has
        exhausted its backoff budget against the preferred copy.
        """
        chain = self._per_function.get(function_id)
        if not chain:
            return None
        for record in reversed(chain):
            if record.checkpoint_id in self._lost:
                continue
            if healthy_only and self.tier_refusing(record.ref.tier_name):
                continue
            if self.router.is_available(record.ref):
                return record
        return None

    def tier_refusing(self, tier_name: str) -> bool:
        """True while *tier_name* is browned out and refusing I/O."""
        return self.router.tiers.is_refusing(tier_name)

    def restore_time(self, record: CheckpointRecord) -> float:
        """Seconds to fetch the checkpoint payload (part of ``t_res``)."""
        return self.router.read_time(record.ref)

    def on_node_failure(
        self, node_id: str, now: Optional[float] = None
    ) -> list[str]:
        """Propagate node loss into checkpoint availability.

        Two loss modes: payloads on node-local tiers die with the node
        (router), and — with a non-zero flush lag — checkpoints written
        from the node that had not yet flushed to shared storage.  Returns
        the ids of the lost checkpoints.
        """
        # Payloads are stored under their checkpoint ids (``_commit``).
        lost_keys = self.router.on_node_failure(node_id)
        lost_ids: list[str] = []
        if self.flush_lag_s > 0:
            for checkpoint_id, (home, durable_at) in list(
                self._pending_flush.items()
            ):
                if now is not None and now >= durable_at:
                    # Flushed long ago; stop tracking.
                    del self._pending_flush[checkpoint_id]
                    continue
                if home == node_id:
                    self._lost.add(checkpoint_id)
                    del self._pending_flush[checkpoint_id]
                    lost_ids.append(checkpoint_id)
        return lost_ids + lost_keys

    def drop_function(self, function_id: str) -> None:
        """Release all checkpoints of a completed function."""
        chain = self._per_function.pop(function_id, None)
        if not chain:
            return
        for record in chain:
            self.router.delete(record.ref)
            self._retire(record.checkpoint_id)

    def chain_length(self, function_id: str) -> int:
        return len(self._per_function.get(function_id, ()))

    def rows(self) -> Iterator[tuple]:
        """The ``checkpoint_info`` view: one row per retained checkpoint, in
        the table's field order.  An evicted or dropped checkpoint has no
        row; a row is unavailable once its payload died with a node."""
        for chain in self._per_function.values():
            for r in chain:
                available = r.checkpoint_id not in self._lost and self.router.is_available(r.ref)
                yield (r.checkpoint_id, r.job_id, r.function_id, r.state_index,
                       r.size_bytes, r.ref.tier_name, r.created_at, available)
