"""Scenario configuration: one fully specified simulated run."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.adaptive.config import AdaptiveConfig
from repro.autoscale.config import AutoscaleConfig
from repro.checkpoint.policy import CheckpointPolicy
from repro.common.types import RecoveryStrategyName, ReplicationStrategyName
from repro.core.config import PlatformConfig
from repro.detection import BackoffPolicy, DetectionConfig
from repro.faults.chaos import ChaosConfig
from repro.network.config import NetworkModelConfig
from repro.policies.factory import PLACEMENT_POLICIES
from repro.strategies.cloning import CloningConfig
from repro.traffic.tenant import TrafficConfig

#: Error-rate sweep used throughout §V ("vary the error rate from 1% to 50%").
ERROR_RATE_SWEEP: tuple[float, ...] = (0.01, 0.05, 0.10, 0.15, 0.25, 0.50)

#: The paper averages each experiment over 10 runs.
DEFAULT_SEEDS: tuple[int, ...] = tuple(range(10))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and run one :class:`CanaryPlatform`.

    ``jobs`` optionally splits the invocations into several equal jobs
    (batch-job experiments, Fig. 12); by default one job carries all
    functions.
    """

    workload: str
    strategy: RecoveryStrategyName | str = RecoveryStrategyName.CANARY
    error_rate: float = 0.0
    num_functions: int = 100
    num_nodes: int = 16
    jobs: int = 1
    replication_strategy: ReplicationStrategyName | str = (
        ReplicationStrategyName.DYNAMIC
    )
    checkpoint_interval: int = 1
    checkpoint_policy: Optional[CheckpointPolicy] = None
    node_failure_count: int = 0
    node_failure_window: tuple[float, float] = (0.0, 0.0)
    refailure_rate: Optional[float] = None
    platform_config: Optional[PlatformConfig] = None
    #: Flow-level fabric model; None keeps the legacy uncontended charges
    #: (byte-identical to pre-network results).
    network: Optional[NetworkModelConfig] = None
    #: Gray-failure chaos archetypes; None (default) injects nothing and
    #: keeps runs byte-identical to the pre-chaos platform.
    chaos: Optional[ChaosConfig] = None
    #: Heartbeat/phi-accrual detection; None keeps the constant-delay
    #: detection oracle.
    detection: Optional[DetectionConfig] = None
    #: Placement/restore retry-backoff policy; None disables backoff.
    backoff: Optional[BackoffPolicy] = None
    #: Open-loop multi-tenant traffic; None (default) keeps the classic
    #: batch submission (``num_functions`` split into ``jobs``) and all
    #: golden pins byte-identical.  When set, the traffic stream replaces
    #: the batch submission entirely.
    traffic: Optional[TrafficConfig] = None
    #: Node autoscaler; None (default) keeps the fixed node set.
    autoscale: Optional[AutoscaleConfig] = None
    #: S39 placement policy name (``repro.policies.PLACEMENT_POLICIES``).
    #: The default ``"locality"`` keeps placement byte-identical to the
    #: pre-policy platform.
    placement: str = "locality"
    #: S40 adaptive fault-tolerance controller; None (default) keeps
    #: every knob static and all golden pins byte-identical.
    adaptive: Optional[AdaptiveConfig] = None
    #: Cloning degree for ``strategy="cloning"``; None uses the strategy
    #: default (2 copies).  Setting it with any other strategy is rejected.
    cloning: Optional[CloningConfig] = None

    def __post_init__(self) -> None:
        if self.num_functions <= 0:
            raise ValueError("num_functions must be positive")
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        if self.num_functions % self.jobs != 0:
            raise ValueError("num_functions must divide evenly into jobs")
        if self.cloning is not None:
            strategy = RecoveryStrategyName(self.strategy)
            if strategy is not RecoveryStrategyName.CLONING:
                raise ValueError(
                    f"cloning applies only to strategy 'cloning', "
                    f"not {strategy.value!r}"
                )
        if self.placement not in PLACEMENT_POLICIES:
            known = ", ".join(sorted(PLACEMENT_POLICIES))
            raise ValueError(
                f"unknown placement policy {self.placement!r} "
                f"(known: {known})"
            )

    def with_(self, **changes) -> "ScenarioConfig":
        """Functional update (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)

    @property
    def functions_per_job(self) -> int:
        return self.num_functions // self.jobs
