"""Scenario configuration: one fully specified simulated run.

A :class:`ScenarioConfig` is the only description of a run.
:class:`~repro.core.canary.CanaryPlatform` reads every setting from it,
and the experiment runner, the CLI and the figure sweeps build one per
cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.adaptive.config import AdaptiveConfig
from repro.autoscale.config import AutoscaleConfig
from repro.checkpoint.policy import CheckpointPolicy
from repro.cluster.heterogeneity import CHAMELEON_PROFILES, NodeProfile
from repro.common.types import RecoveryStrategyName, ReplicationStrategyName
from repro.core.config import PlatformConfig
from repro.cost.pricing import IBM_CLOUD_FUNCTIONS_PRICING, PricingModel
from repro.detection import BackoffPolicy, DetectionConfig
from repro.faas.limits import PlatformLimits
from repro.faults.chaos import ChaosConfig
from repro.network.config import NetworkModelConfig
from repro.policies.factory import PLACEMENT_POLICIES
from repro.strategies.cloning import CloningConfig
from repro.traffic.tenant import TrafficConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build and run one :class:`CanaryPlatform`.

    ``jobs`` optionally splits the invocations into several equal jobs
    (batch-job experiments, Fig. 12); by default one job carries all
    functions.  ``workload``, ``num_functions``, ``jobs`` and
    ``checkpoint_interval`` describe that batch; callers that submit
    their own :class:`~repro.core.jobs.JobRequest` can leave them be.
    """

    workload: str = "dl-training"
    strategy: RecoveryStrategyName | str = RecoveryStrategyName.CANARY
    error_rate: float = 0.0
    num_functions: int = 100
    num_nodes: int = 16
    jobs: int = 1
    replication_strategy: ReplicationStrategyName | str = (
        ReplicationStrategyName.DYNAMIC
    )
    checkpoint_interval: int = 1
    checkpoint_policy: CheckpointPolicy = CheckpointPolicy()
    #: Node-level failures.  A ``(0, 0)`` window means "the workload's
    #: expected busy period" (see ``CanaryPlatform``).
    node_failure_count: int = 0
    node_failure_window: tuple[float, float] = (0.0, 0.0)
    #: Recovery attempts re-fail at this rate; None means ``error_rate``.
    refailure_rate: Optional[float] = None
    #: Platform constants; None means the defaults, with checkpoint
    #: spills forced onto shared tiers when node failures are configured.
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
    #: One policy object serves both container cold starts and replica
    #: placement.  The default ``"locality"`` keeps placement
    #: byte-identical to the pre-policy platform.
    placement: str = "locality"
    #: S40 adaptive fault-tolerance controller; None (default) keeps
    #: every knob static and all golden pins byte-identical.
    adaptive: Optional[AdaptiveConfig] = None
    #: Cloning degree for ``strategy="cloning"``; None uses the strategy
    #: default (2 copies).  Setting it with any other strategy is rejected.
    cloning: Optional[CloningConfig] = None
    #: Transient container faults emitted on a doomed node shortly
    #: before it dies (the signal failure predictors key on).
    node_failure_precursors: int = 0
    #: Failure prediction and proactive mitigation (§VII future work).
    prediction: bool = False
    #: Delay between a checkpoint's local write and its durable flush.
    checkpoint_flush_lag_s: float = 0.0
    #: Account/platform quotas enforced by the Request Validator.
    limits: PlatformLimits = PlatformLimits()
    #: Billing model for cost summaries.
    pricing: PricingModel = IBM_CLOUD_FUNCTIONS_PRICING
    #: Container starts per second the controller admits; None = unlimited.
    start_rate_limit: Optional[float] = None
    #: Keep finished containers warm for reuse by later functions.
    reuse_containers: bool = False
    #: Node hardware profiles the cluster cycles through.
    heterogeneity_profiles: tuple[NodeProfile, ...] = CHAMELEON_PROFILES

    def __post_init__(self) -> None:
        if self.num_functions <= 0:
            raise ValueError("num_functions must be positive")
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be within [0, 1]")
        if self.refailure_rate is not None and not (
            0.0 <= self.refailure_rate <= 1.0
        ):
            raise ValueError("refailure_rate must be within [0, 1]")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.node_failure_count < 0:
            raise ValueError("node_failure_count must be non-negative")
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
        if self.node_failure_count == 0:
            if self.node_failure_window != (0.0, 0.0):
                raise ValueError(
                    "node_failure_window applies only with node failures"
                )
            if self.node_failure_precursors > 0:
                raise ValueError(
                    "node_failure_precursors applies only with node failures"
                )
        elif (
            self.autoscale is None
            and self.node_failure_count >= self.num_nodes
        ):
            raise ValueError(
                f"{self.node_failure_count} node failures would leave none "
                f"of the {self.num_nodes} nodes alive"
            )

    def with_(self, **changes) -> "ScenarioConfig":
        """Functional update (thin wrapper over dataclasses.replace)."""
        return replace(self, **changes)

    @property
    def functions_per_job(self) -> int:
        return self.num_functions // self.jobs
