"""An Apache-Ignite-like in-memory key-value store.

Implements the subset of Ignite semantics the paper relies on (§IV-C-4,
§V-C-1): in-memory entries with a per-key size limit (``db_limit`` of
Algorithm 1) in *replicated caching mode* with native persistence, so
every entry is available cluster-wide and no node failure loses one.  The
store never fills: only the per-key limit sends a payload elsewhere.

Values may be arbitrary Python payloads (real checkpoint bytes in the local
executor) or pure metadata with a declared ``size_bytes`` (the simulator
never materializes 98 MB of ResNet weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import StorageCapacityError
from repro.common.units import MiB


@dataclass
class KVEntry:
    """One stored entry."""

    key: str
    value: Any
    size_bytes: float


class KeyValueStore:
    """Replicated in-memory KV store with a per-key size cap.

    Args:
        db_limit_bytes: Maximum per-key payload size (Algorithm 1 line 5
            compares ``ckpt_data`` against this).  Ignite-style stores cap
            entry sizes well below total memory.
    """

    def __init__(self, *, db_limit_bytes: float = 64 * MiB) -> None:
        if db_limit_bytes <= 0:
            raise ValueError("db_limit_bytes must be positive")
        self.db_limit_bytes = db_limit_bytes
        self._entries: dict[str, KVEntry] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        """Bytes held by the live entries (an empty store holds 0)."""
        return sum((entry.size_bytes for entry in self._entries.values()), 0.0)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def fits(self, size_bytes: float) -> bool:
        """True when a payload of this size respects the per-key limit."""
        return size_bytes <= self.db_limit_bytes

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any, *, size_bytes: float) -> KVEntry:
        """Store *value* under *key*, replacing any previous value.

        Raises:
            StorageCapacityError: payload exceeds ``db_limit_bytes`` (the
                caller should spill to a tier instead).
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if not self.fits(size_bytes):
            raise StorageCapacityError(
                f"value for {key!r} is {size_bytes:.0f}B, exceeds per-key "
                f"db_limit of {self.db_limit_bytes:.0f}B"
            )
        entry = KVEntry(key=key, value=value, size_bytes=size_bytes)
        self._entries[key] = entry
        return entry

    def get(self, key: str) -> Optional[KVEntry]:
        return self._entries.get(key)

    def delete(self, key: str) -> bool:
        return self._entries.pop(key, None) is not None
