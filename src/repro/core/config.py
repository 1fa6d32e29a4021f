"""Platform-wide configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PlatformConfig:
    """Tunable constants of the simulated platform.

    Attributes:
        detection_delay_s: Time between a container dying and the Core
            Module noticing (health-poll interval).  Charged to *every*
            recovery strategy.
        rr_replicas: Request-replication siblings per function ("we launch
            one replica per request", §V-D-5).
        require_shared_spill: Force checkpoint spills onto shared tiers so
            they survive node failures (on for the fig. 11 experiments).
    """

    detection_delay_s: float = 1.0
    rr_replicas: int = 1
    require_shared_spill: bool = False

    def __post_init__(self) -> None:
        if self.detection_delay_s < 0:
            raise ValueError("detection_delay_s must be non-negative")
        if self.rr_replicas < 1:
            raise ValueError("rr_replicas must be at least 1")
