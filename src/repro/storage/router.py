"""Checkpoint placement: KV store first, spill to tiers when too large.

Implements the storage side of Algorithm 1: checkpoint payloads that fit the
KV per-key limit go to the KV store; larger payloads go to the fastest spill
tier that is not browned out (``ckpt_data -> disk``) and only a *reference*
is recorded.  No store or tier fills up, so where a payload lands depends
only on its size, the brownout state and the router's settings.  The
router holds a spilled payload beside its ref, in place of the tier, and
``read`` returns an inline or a spilled payload (the real executor's
bytes; None in the simulator, which stores sizes only).  The router only
routes: the tier registry prices writes and reads (``ckp_i``, ``t_res``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.storage.kvstore import KeyValueStore
from repro.storage.tiers import StorageTier, TierRegistry


@dataclass(frozen=True)
class StoredObjectRef:
    """Where a checkpoint payload physically lives.

    ``tier_name == "kv"`` means the payload is inline in the KV store;
    anything else is a spilled object whose *location* (name + tier) was
    pushed to the database instead of the data (Algorithm 1 line 7).
    """

    key: str
    tier_name: str
    size_bytes: float
    node_id: Optional[str]  # writing node; relevant for non-shared tiers

    @property
    def inline(self) -> bool:
        return self.tier_name == "kv"


class CheckpointStorageRouter:
    """Routes checkpoint payloads between the KV store and spill tiers."""

    def __init__(
        self,
        kv: KeyValueStore,
        tiers: TierRegistry,
        *,
        require_shared_spill: bool = False,
        custom_endpoint: Optional[str] = None,
    ) -> None:
        """
        Args:
            kv: The cluster KV store.
            tiers: Deployment-phase tier hierarchy.
            require_shared_spill: Force spills onto cluster-visible tiers so
                checkpoints survive node failures (used by the scaling
                experiments with node-level failure injection).
            custom_endpoint: Name of a tier that overrides the hierarchy
                (e.g. ``"s3"``), matching the custom-endpoint override of
                §IV-C-4.
        """
        self.kv = kv
        self.tiers = tiers
        self.require_shared_spill = require_shared_spill
        self.custom_endpoint = custom_endpoint
        # key -> (ref, payload) of each spilled checkpoint still held.
        self._spilled: dict[str, tuple[StoredObjectRef, Any]] = {}

    @property
    def custom_endpoint(self) -> Optional[str]:
        return self._custom_endpoint

    @custom_endpoint.setter
    def custom_endpoint(self, name: Optional[str]) -> None:
        """Validated on every assignment, not only at construction."""
        if name == "kv":
            raise ValueError(
                "custom_endpoint cannot be 'kv': the KV store takes only "
                "payloads within its per-key limit"
            )
        if name is not None:
            self.tiers.get(name)  # KeyError for an unknown tier
        self._custom_endpoint = name

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def choose_tier(self, size_bytes: float) -> StorageTier:
        """Tier that a payload of *size_bytes* would land on."""
        if self._custom_endpoint is not None:
            return self.tiers.get(self._custom_endpoint)
        if self.kv.fits(size_bytes) and not self.tiers.is_refusing("kv"):
            return self.tiers.get("kv")
        return self.tiers.fastest_spill_tier(
            require_shared=self.require_shared_spill
        )

    def write(
        self,
        key: str,
        payload: Any,
        *,
        size_bytes: float,
        node_id: Optional[str] = None,
    ) -> StoredObjectRef:
        """Store a checkpoint payload; return its ref."""
        tier = self.choose_tier(size_bytes)
        if tier.name == "kv":
            self.kv.put(key, payload, size_bytes=size_bytes)
            return StoredObjectRef(key, "kv", size_bytes, node_id)
        ref = StoredObjectRef(key, tier.name, size_bytes, node_id)
        self._spilled[key] = (ref, payload)
        # Only the (name, location) pair goes to the KV store/database.
        self.kv.put(
            key,
            {"ckpt_name": key, "ckpt_loc": tier.name},
            size_bytes=256.0,
        )
        return ref

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read(self, ref: StoredObjectRef) -> Any:
        """The payload stored behind *ref*; KeyError once it is gone."""
        if ref.inline:
            entry = self.kv.get(ref.key)
            if entry is None:
                raise KeyError(ref.key)
            return entry.value
        return self._spilled[ref.key][1]

    def delete(self, ref: StoredObjectRef) -> None:
        """Drop a stored payload (checkpoint retention eviction)."""
        self.kv.delete(ref.key)
        if not ref.inline:
            self._spilled.pop(ref.key, None)

    # ------------------------------------------------------------------
    # Failure semantics
    # ------------------------------------------------------------------
    def on_node_failure(self, node_id: str) -> list[str]:
        """Drop spilled payloads that lived only on the failed node (the
        KV store is replicated and loses nothing).

        Returns the keys of lost checkpoints (the recovery path must fall
        back to an older surviving checkpoint or a full restart).
        """
        lost: list[str] = []
        for key, (ref, _) in list(self._spilled.items()):
            tier = self.tiers.get(ref.tier_name)
            if not tier.survives_node_failure and ref.node_id == node_id:
                del self._spilled[key]
                self.kv.delete(key)
                lost.append(key)
        return lost

    def is_available(self, ref: StoredObjectRef) -> bool:
        """True while the payload behind *ref* can still be fetched."""
        if ref.inline:
            return ref.key in self.kv
        return ref.key in self._spilled
