"""Strategy factory."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.types import RecoveryStrategyName
from repro.strategies.active_standby import ActiveStandbyStrategy
from repro.strategies.base import RecoveryStrategy
from repro.strategies.canary import (
    CanaryCheckpointOnlyStrategy,
    CanaryReplicationOnlyStrategy,
    CanaryStrategy,
)
from repro.strategies.cloning import CloningStrategy
from repro.strategies.ideal import IdealStrategy
from repro.strategies.request_replication import RequestReplicationStrategy
from repro.strategies.retry import RetryStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.canary import CanaryPlatform


def _sla_strategy(platform: CanaryPlatform) -> RecoveryStrategy:
    # Imported lazily: repro.sla depends on the canary strategy.
    from repro.sla.strategy import SlaAwareCanaryStrategy

    return SlaAwareCanaryStrategy(platform)


_REGISTRY = {
    RecoveryStrategyName.IDEAL: IdealStrategy,
    RecoveryStrategyName.RETRY: RetryStrategy,
    RecoveryStrategyName.CANARY: CanaryStrategy,
    RecoveryStrategyName.CANARY_REPLICATION_ONLY: CanaryReplicationOnlyStrategy,
    RecoveryStrategyName.CANARY_CHECKPOINT_ONLY: CanaryCheckpointOnlyStrategy,
    RecoveryStrategyName.REQUEST_REPLICATION: RequestReplicationStrategy,
    RecoveryStrategyName.ACTIVE_STANDBY: ActiveStandbyStrategy,
    RecoveryStrategyName.CANARY_SLA: _sla_strategy,
    RecoveryStrategyName.CLONING: CloningStrategy,
}


def make_strategy(
    name: RecoveryStrategyName | str, platform: CanaryPlatform
) -> RecoveryStrategy:
    """Instantiate a recovery strategy by name."""
    name = RecoveryStrategyName(name)
    return _REGISTRY[name](platform)
