"""An Apache-Ignite-like in-memory key-value store.

Implements the subset of Ignite semantics the paper relies on (§IV-C-4,
§V-C-1):

* in-memory entries with a per-key size limit (``db_limit`` of Algorithm 1);
* *replicated caching mode* — every entry is available cluster-wide, so a
  single node failure does not lose replicated data;
* optional *native persistence* — entries additionally survive even when
  replication is disabled;
* versioned puts.

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
    version: int
    written_at: float
    home_node: Optional[str] = None  # node that wrote it (primary copy)


class KeyValueStore:
    """Replicated in-memory KV store with a per-key size cap.

    Args:
        db_limit_bytes: Maximum per-key payload size (Algorithm 1 line 5
            compares ``ckpt_data`` against this).  Ignite-style stores cap
            entry sizes well below total memory.
        capacity_bytes: Total in-memory capacity across the cluster.
        replicated: Replicated caching mode — data survives node loss.
        persistent: Native persistence — data survives node loss even if
            not replicated.
    """

    def __init__(
        self,
        *,
        db_limit_bytes: float = 64 * MiB,
        capacity_bytes: float = float("inf"),
        replicated: bool = True,
        persistent: bool = True,
    ) -> None:
        if db_limit_bytes <= 0:
            raise ValueError("db_limit_bytes must be positive")
        self.db_limit_bytes = db_limit_bytes
        self.capacity_bytes = capacity_bytes
        self.replicated = replicated
        self.persistent = persistent
        self._entries: dict[str, KVEntry] = {}
        self._used = 0.0
        self._version_counter = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        return self._used

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self._used

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
    def put(
        self,
        key: str,
        value: Any,
        *,
        size_bytes: float,
        now: float = 0.0,
        home_node: Optional[str] = None,
    ) -> KVEntry:
        """Store *value* under *key*, replacing any previous version.

        Raises:
            StorageCapacityError: payload exceeds ``db_limit_bytes`` (the
                caller should spill to a tier instead) or the store is full.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if not self.fits(size_bytes):
            raise StorageCapacityError(
                f"value for {key!r} is {size_bytes:.0f}B, exceeds per-key "
                f"db_limit of {self.db_limit_bytes:.0f}B"
            )
        previous = self._entries.get(key)
        delta = size_bytes - (previous.size_bytes if previous else 0.0)
        if self._used + delta > self.capacity_bytes:
            raise StorageCapacityError(
                f"KV store full: need {delta:.0f}B more, "
                f"free {self.free_bytes:.0f}B"
            )
        self._version_counter += 1
        entry = KVEntry(
            key=key,
            value=value,
            size_bytes=size_bytes,
            version=self._version_counter,
            written_at=now,
            home_node=home_node,
        )
        self._entries[key] = entry
        self._used += delta
        return entry

    def get(self, key: str) -> Optional[KVEntry]:
        return self._entries.get(key)

    def delete(self, key: str) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used -= entry.size_bytes
        # An empty store reads exactly zero (clamps float residue).
        if not self._entries or self._used < 0.0:
            self._used = 0.0
        return True

    # ------------------------------------------------------------------
    # Failure semantics
    # ------------------------------------------------------------------
    def on_node_failure(self, node_id: str) -> list[str]:
        """Apply Ignite failure semantics when *node_id* dies.

        With replication or persistence every entry survives.  Otherwise
        entries whose primary copy lived on the failed node are dropped.
        Returns the list of lost keys.
        """
        if self.replicated or self.persistent:
            return []
        lost = [
            key
            for key, entry in self._entries.items()
            if entry.home_node == node_id
        ]
        for key in lost:
            self.delete(key)
        return lost

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0.0
