"""Shared vocabulary: enums, units, and exception types used across layers."""

from repro.common.errors import (
    CanaryError,
    PlacementError,
    ReproError,
    RequestValidationError,
    StorageCapacityError,
)
from repro.common.types import (
    ContainerState,
    FunctionState,
    JobState,
    RecoveryStrategyName,
    ReplicationStrategyName,
    RuntimeKind,
)
from repro.common.units import GiB, KiB, MiB, gb, mb

__all__ = [
    "CanaryError",
    "ContainerState",
    "FunctionState",
    "GiB",
    "JobState",
    "KiB",
    "MiB",
    "PlacementError",
    "RecoveryStrategyName",
    "ReplicationStrategyName",
    "ReproError",
    "RequestValidationError",
    "RuntimeKind",
    "StorageCapacityError",
    "gb",
    "mb",
]
