"""Network model configuration and calibrated link presets.

The testbed interconnect of the paper is 10 GbE (§V-A: Chameleon nodes,
NFS shared storage over 10 GbE), so the default preset models exactly
that: 10 Gb/s NICs, a 2:1-oversubscribed ToR uplink (4 nodes/rack share a
2 × NIC uplink), and a non-blocking core.  Bandwidths are bytes per
second per direction; each traversed hop adds a fixed per-hop latency.

``None`` (the absence of a config) selects the legacy uncontended model
everywhere, so all pre-existing figures reproduce unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: 10 Gb/s expressed in bytes per second.
_10GBE = 10e9 / 8.0


@dataclass(frozen=True)
class NetworkModelConfig:
    """Link capacities of the simulated fabric.

    Attributes:
        name: Preset identifier (shown in CLI listings).
        nic_bandwidth: Per-node NIC capacity, bytes/s per direction.
        uplink_bandwidth: Per-rack ToR uplink capacity, bytes/s per
            direction (shared by every node of the rack for cross-rack
            and storage-service traffic).
        core_bandwidth: Aggregation/core capacity, bytes/s per direction.
        hop_latency_s: Fixed latency added per traversed link.
        registry_bandwidth: Egress capacity of the container image
            registry service (cold-start image pulls).
        edge_racks: Racks sitting behind a WAN instead of the datacenter
            ToR uplink (cloud-core + edge split).  Empty (default) keeps
            the single-site fabric byte-identical.
        wan_uplink_bandwidth: Uplink capacity for ``edge_racks``; the WAN
            is *lossy* in goodput terms — retransmissions over a
            high-loss path show up as derated effective bandwidth, which
            is exactly what a flow-level model can express.
        wan_latency_s: Extra one-way latency added per traversed WAN
            uplink (on top of ``hop_latency_s``).
    """

    name: str = "custom"
    nic_bandwidth: float = _10GBE
    uplink_bandwidth: float = 2.0 * _10GBE
    core_bandwidth: float = 8.0 * _10GBE
    hop_latency_s: float = 50e-6
    registry_bandwidth: float = 2.0 * _10GBE
    edge_racks: tuple[str, ...] = ()
    wan_uplink_bandwidth: Optional[float] = None
    wan_latency_s: float = 0.0

    def __post_init__(self) -> None:
        for field_name in (
            "nic_bandwidth",
            "uplink_bandwidth",
            "core_bandwidth",
            "registry_bandwidth",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.hop_latency_s < 0:
            raise ValueError("hop_latency_s must be non-negative")
        if self.wan_latency_s < 0:
            raise ValueError("wan_latency_s must be non-negative")
        if self.wan_uplink_bandwidth is not None and (
            self.wan_uplink_bandwidth <= 0
        ):
            raise ValueError("wan_uplink_bandwidth must be positive")
        if self.edge_racks and self.wan_uplink_bandwidth is None:
            raise ValueError("edge_racks require a wan_uplink_bandwidth")


#: The calibrated testbed preset: 10 GbE NICs, 2:1 oversubscribed racks.
TEN_GBE = NetworkModelConfig(name="10gbe")

#: A faster fabric for what-if runs (25 GbE NICs, same oversubscription).
TWENTY_FIVE_GBE = NetworkModelConfig(
    name="25gbe",
    nic_bandwidth=2.5 * _10GBE,
    uplink_bandwidth=5.0 * _10GBE,
    core_bandwidth=20.0 * _10GBE,
    registry_bandwidth=5.0 * _10GBE,
)

#: Cloud-edge split: racks 0/1 stay in the datacenter, racks 2/3 become
#: edge sites behind a ~500 Mb/s lossy WAN (goodput-derated) with 25 ms
#: one-way latency per uplink traversal.  Rack names follow the default
#: topology (``rack-<index % 4>``).
EDGE_WAN = NetworkModelConfig(
    name="edge-wan",
    edge_racks=("rack-2", "rack-3"),
    wan_uplink_bandwidth=0.05 * _10GBE,
    wan_latency_s=0.025,
)

#: CLI-facing presets; ``"off"`` is the legacy uncontended model.
NETWORK_PRESETS: dict[str, Optional[NetworkModelConfig]] = {
    "off": None,
    "10gbe": TEN_GBE,
    "25gbe": TWENTY_FIVE_GBE,
    "edge-wan": EDGE_WAN,
}


def get_network_preset(name: str) -> Optional[NetworkModelConfig]:
    """Resolve a preset name; raises ``KeyError`` with the known names."""
    try:
        return NETWORK_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown network preset {name!r}; "
            f"known: {sorted(NETWORK_PRESETS)}"
        ) from None
