"""Enumerated vocabulary shared by the FaaS substrate and the Canary modules."""

from __future__ import annotations

import enum


class RuntimeKind(str, enum.Enum):
    """Function runtime images evaluated in the paper (§V-C-2)."""

    PYTHON = "python"
    NODEJS = "nodejs"
    JAVA = "java"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ContainerState(str, enum.Enum):
    """Lifecycle of a function container (Fig. 1 execution flow)."""

    PENDING = "pending"          # created, waiting for node capacity
    LAUNCHING = "launching"      # container launch (lch_f)
    INITIALIZING = "initializing"  # runtime init (ini_f)
    WARM = "warm"                # initialized replica, idle, ready to adopt
    RUNNING = "running"          # executing function states
    COMPLETED = "completed"
    FAILED = "failed"
    KILLED = "killed"            # torn down deliberately (job end, replace)


class FunctionState(str, enum.Enum):
    """Status of a logical function invocation (may span several attempts)."""

    QUEUED = "queued"
    SCHEDULED = "scheduled"
    RUNNING = "running"
    RECOVERING = "recovering"
    COMPLETED = "completed"
    FAILED = "failed"


class JobState(str, enum.Enum):
    SUBMITTED = "submitted"
    VALIDATED = "validated"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"


class RecoveryStrategyName(str, enum.Enum):
    """Execution scenarios compared in §V."""

    IDEAL = "ideal"                      # failure-free baseline
    RETRY = "retry"                      # platform default: restart from scratch
    CANARY = "canary"                    # checkpoints + replicated runtimes
    CANARY_REPLICATION_ONLY = "canary-replication-only"  # ablation
    CANARY_CHECKPOINT_ONLY = "canary-checkpoint-only"    # ablation
    REQUEST_REPLICATION = "request-replication"          # RR [65]
    ACTIVE_STANDBY = "active-standby"                    # AS [66]
    CANARY_SLA = "canary-sla"            # SLA-aware extension (§VII)
    CLONING = "cloning"                  # first-finisher request cloning (S40)


class ReplicationStrategyName(str, enum.Enum):
    """Replica-count policies of §V-D-4 / Fig. 9."""

    DYNAMIC = "dynamic"        # DR: adjust factor to observed failure rate
    AGGRESSIVE = "aggressive"  # AR: high fixed factor per running job
    LENIENT = "lenient"        # LR: one active replica per job
