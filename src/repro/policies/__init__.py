"""S39: the pluggable placement-policy layer.

One policy object per platform serves both placement decision points —
container cold starts at the controller and warm-replica placement at the
Replication Module — selected by name through ``ScenarioConfig.placement``
or ``canary-sim … --placement``.
"""

from repro.policies.base import PlacementPolicy, static_key
from repro.policies.builtin import (
    ContentionAwarePolicy,
    CostMinimizingPolicy,
    LeastLoadedPolicy,
    LocalityPolicy,
    RoundRobinPolicy,
    SuspicionAwarePolicy,
)
from repro.policies.factory import DEFAULT_PLACEMENT, PLACEMENT_POLICIES

__all__ = [
    "PlacementPolicy",
    "static_key",
    "LocalityPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "ContentionAwarePolicy",
    "CostMinimizingPolicy",
    "SuspicionAwarePolicy",
    "PLACEMENT_POLICIES",
    "DEFAULT_PLACEMENT",
]
