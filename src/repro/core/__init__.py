"""Canary control plane: Core Module, database, validator, execution.

This package implements the paper's primary contribution (§IV): the Core
Module that orchestrates job execution and failure recovery, the five
bookkeeping tables, the Request Validator Module, and the per-function
execution state machine that ties checkpointing and replication together.
"""

from repro.core.canary import CanaryPlatform
from repro.core.database import CanaryDatabase
from repro.core.execution import Attempt, FunctionExecution
from repro.core.ids import IdGenerator
from repro.core.jobs import Job, JobRequest
from repro.core.scenario import ScenarioConfig
from repro.core.validator import RequestValidator, ValidationResult
from repro.core.workflow import (
    WorkflowCoordinator,
    WorkflowRequest,
    WorkflowRun,
    WorkflowStage,
)

__all__ = [
    "Attempt",
    "CanaryDatabase",
    "CanaryPlatform",
    "FunctionExecution",
    "IdGenerator",
    "Job",
    "JobRequest",
    "RequestValidator",
    "ScenarioConfig",
    "ValidationResult",
    "WorkflowCoordinator",
    "WorkflowRequest",
    "WorkflowRun",
    "WorkflowStage",
]
