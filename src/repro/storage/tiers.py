"""Storage tier latency/bandwidth models.

The paper's testbed exposes a hierarchy (§IV-C-4, §V-C-1): the Ignite
in-memory KV store, Intel Optane PMem in AppDirect mode, Ramdisk, NFS shared
storage over 10 GbE, and optionally an S3-like external endpoint.  Each tier
is modeled as ``latency + size / bandwidth`` with published-order-of-magnitude
constants.  What matters for the reproduction is the *relative* cost of
writing/restoring checkpoints of different sizes to different tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import StorageCapacityError
from repro.common.units import GiB, MiB


@dataclass(frozen=True)
class StorageTier:
    """One storage tier.

    Attributes:
        name: Tier identifier used by checkpoint records.
        read_latency_s / write_latency_s: Fixed per-operation latency.
        read_bandwidth / write_bandwidth: Bytes per second of streaming I/O.
        shared: Visible from every node (NFS, S3, replicated KV).  Checkpoints
            on non-shared tiers are lost with their node.
        survives_node_failure: Data outlives the writing node's crash.

    No tier fills up: capacity never decides where a checkpoint lands.
    """

    name: str
    read_latency_s: float
    write_latency_s: float
    read_bandwidth: float
    write_bandwidth: float
    shared: bool
    survives_node_failure: bool

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier name must be non-empty")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError(
                f"tier {self.name!r}: bandwidths must be positive "
                f"(got read={self.read_bandwidth}, "
                f"write={self.write_bandwidth})"
            )
        if self.read_latency_s < 0 or self.write_latency_s < 0:
            raise ValueError(
                f"tier {self.name!r}: latencies must be non-negative "
                f"(got read={self.read_latency_s}, "
                f"write={self.write_latency_s})"
            )

    def read_time(self, size_bytes: float) -> float:
        """Seconds to read *size_bytes* from this tier."""
        return self.read_latency_s + size_bytes / self.read_bandwidth

    def write_time(self, size_bytes: float) -> float:
        """Seconds to write *size_bytes* to this tier."""
        return self.write_latency_s + size_bytes / self.write_bandwidth


def _default_tiers() -> tuple[StorageTier, ...]:
    """The deployment-phase hierarchy of §IV-C-4, fastest first."""
    return (
        # Apache Ignite replicated cache: memory-speed but pays replication
        # on the write path (10 GbE), so write bandwidth is network-bound.
        StorageTier(
            name="kv",
            read_latency_s=0.0005,
            write_latency_s=0.001,
            read_bandwidth=4.0 * GiB,
            write_bandwidth=1.1 * GiB,  # ~10 GbE with replication overhead
            shared=True,
            survives_node_failure=True,
        ),
        # Intel Optane PMem, AppDirect mode (node-local).
        StorageTier(
            name="pmem",
            read_latency_s=0.0003,
            write_latency_s=0.0005,
            read_bandwidth=6.0 * GiB,
            write_bandwidth=2.0 * GiB,
            shared=False,
            survives_node_failure=False,
        ),
        # Ramdisk (node-local, volatile).
        StorageTier(
            name="ramdisk",
            read_latency_s=0.0002,
            write_latency_s=0.0002,
            read_bandwidth=8.0 * GiB,
            write_bandwidth=8.0 * GiB,
            shared=False,
            survives_node_failure=False,
        ),
        # NFS shared storage over 10 GbE.
        StorageTier(
            name="nfs",
            read_latency_s=0.003,
            write_latency_s=0.005,
            read_bandwidth=0.9 * GiB,
            write_bandwidth=0.8 * GiB,
            shared=True,
            survives_node_failure=True,
        ),
        # External S3-like object store (custom endpoint override).
        StorageTier(
            name="s3",
            read_latency_s=0.030,
            write_latency_s=0.050,
            read_bandwidth=200.0 * MiB,
            write_bandwidth=150.0 * MiB,
            shared=True,
            survives_node_failure=True,
        ),
    )


DEFAULT_TIERS: tuple[StorageTier, ...] = _default_tiers()


class TierRegistry:
    """Orders tiers, tracks their brownout state and prices their I/O.

    The registry is the "storage hierarchy determined at the deployment
    phase" (§IV-C-4); a custom endpoint can be appended or substituted.
    """

    def __init__(self, tiers: tuple[StorageTier, ...] = DEFAULT_TIERS) -> None:
        if not tiers:
            raise ValueError("at least one storage tier is required")
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        self.tiers = tuple(tiers)
        self._by_name = {t.name: t for t in tiers}
        # Brownout state (gray-failure chaos layer): a tier can temporarily
        # refuse new I/O or inflate its latency by a multiplier.
        self._refusing: set[str] = set()
        self._latency_multiplier: dict[str, float] = {}

    def get(self, name: str) -> StorageTier:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown storage tier {name!r}; "
                f"known: {sorted(self._by_name)}"
            ) from None

    # ------------------------------------------------------------------
    # Brownouts (gray-failure chaos layer)
    # ------------------------------------------------------------------
    def set_brownout(
        self,
        name: str,
        *,
        refuse: bool = False,
        latency_multiplier: float = 1.0,
    ) -> None:
        """Set tier *name*'s brownout state: whether it refuses new I/O
        and its latency multiplier (the defaults are healthy)."""
        self.get(name)
        if latency_multiplier < 1.0:
            raise ValueError("latency_multiplier must be >= 1")
        if refuse:
            self._refusing.add(name)
        else:
            self._refusing.discard(name)
        if latency_multiplier != 1.0:
            self._latency_multiplier[name] = latency_multiplier
        else:
            self._latency_multiplier.pop(name, None)

    def is_refusing(self, name: str) -> bool:
        return name in self._refusing

    def read_seconds(self, tier: StorageTier, size_bytes: float) -> float:
        """Tier read time with any active brownout inflation applied."""
        base = tier.read_time(size_bytes)
        multiplier = self._latency_multiplier.get(tier.name)
        return base if multiplier is None else base * multiplier

    def write_seconds(self, tier: StorageTier, size_bytes: float) -> float:
        """Tier write time with any active brownout inflation applied."""
        base = tier.write_time(size_bytes)
        multiplier = self._latency_multiplier.get(tier.name)
        return base if multiplier is None else base * multiplier

    def fastest_spill_tier(self, *, require_shared: bool = False) -> StorageTier:
        """First tier after the KV store that takes spills now.

        Tiers are tried in declaration order (fastest first).  With
        ``require_shared`` only cluster-visible tiers qualify — used when a
        checkpoint must survive node failures (fig. 11 experiments).
        Browned-out (refusing) tiers are skipped; if *every* candidate is
        refusing, the first of them is used rather than fail — a slow
        write beats a lost checkpoint.
        """
        fallback: Optional[StorageTier] = None
        for tier in self.tiers[1:]:
            if require_shared and not tier.shared:
                continue
            if tier.name not in self._refusing:
                return tier
            if fallback is None:
                fallback = tier
        if fallback is None:
            raise StorageCapacityError(
                f"no spill tier (require_shared={require_shared})"
            )
        return fallback
