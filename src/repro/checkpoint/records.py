"""Checkpoint records: what the database knows about one saved state."""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.router import StoredObjectRef


@dataclass
class CheckpointRecord:
    """One saved checkpoint of one function.

    Attributes:
        checkpoint_id: Unique ID minted by the Core Module.
        job_id / function_id: Owning job and function.
        state_index: Index of the last completed state captured.
        size_bytes: Payload size.
        ref: Physical location (inline KV entry or spilled tier object).
        created_at: Virtual time the checkpoint finished writing.
    """

    checkpoint_id: str
    job_id: str
    function_id: str
    state_index: int
    size_bytes: float
    ref: StoredObjectRef
    created_at: float
