"""Policy registry: name → class.

The registry is the single source of the CLI's ``--placement`` choices,
``ScenarioConfig.placement`` validation, the platform's policy
construction, and the tournament bench's policy axis — adding a policy
here surfaces it everywhere at once.
"""

from __future__ import annotations

from typing import Type

from repro.policies.base import PlacementPolicy
from repro.policies.builtin import (
    ContentionAwarePolicy,
    CostMinimizingPolicy,
    LeastLoadedPolicy,
    LocalityPolicy,
    RoundRobinPolicy,
    SuspicionAwarePolicy,
)

#: name -> policy class, in documentation order (locality is the default).
PLACEMENT_POLICIES: dict[str, Type[PlacementPolicy]] = {
    LocalityPolicy.name: LocalityPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    ContentionAwarePolicy.name: ContentionAwarePolicy,
    CostMinimizingPolicy.name: CostMinimizingPolicy,
    SuspicionAwarePolicy.name: SuspicionAwarePolicy,
}

DEFAULT_PLACEMENT = LocalityPolicy.name
