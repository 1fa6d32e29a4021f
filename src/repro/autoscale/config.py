"""Autoscaler configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AutoscaleConfig:
    """Bounds, cooldowns and boot time of the invoker/node autoscaler.

    The decision loop samples utilization (busy container slots over
    provisioned capacity) into an EWMA and compares it against a
    hysteresis band (the tuning constants in
    :mod:`repro.autoscale.autoscaler`).  Separate per-direction cooldowns
    stop flapping; scale-out pays a boot delay plus (with the fabric
    enabled) a real registry image pull; scale-in cordons first and
    retires only once the node has drained.

    Attributes:
        min_nodes: Floor on provisioned nodes (never scales below).
        max_nodes: Ceiling on provisioned nodes; the cluster is built this
            big up front so the fabric topology and detection see a fixed
            node universe — deprovisioned nodes just cannot host work.
        cooldown_out_s / cooldown_in_s: Minimum spacing between successive
            scale-outs / scale-ins.
        boot_delay_s: Node provisioning time before the image pull starts.
    """

    min_nodes: int = 4
    max_nodes: int = 16
    cooldown_out_s: float = 5.0
    cooldown_in_s: float = 20.0
    boot_delay_s: float = 2.0

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")
        if self.max_nodes < self.min_nodes:
            raise ValueError("max_nodes must be >= min_nodes")
        if self.cooldown_out_s < 0 or self.cooldown_in_s < 0:
            raise ValueError("cooldowns must be non-negative")
        if self.boot_delay_s < 0:
            raise ValueError("boot_delay_s must be non-negative")
