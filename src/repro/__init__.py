"""repro — reproduction of *Canary: Fault-Tolerant FaaS for Stateful
Time-Sensitive Applications* (SC 2022).

Public entry points:

* :class:`repro.ScenarioConfig` — one run's every setting;
  ``CanaryPlatform(scenario, seed=...)`` builds a fully wired simulated FaaS
  platform from it (the substrate for every benchmark);
* :class:`repro.core.JobRequest` + :func:`repro.workloads.get_workload` —
  describe what to run, or ``platform.submit_batch()`` for the scenario's
  own batch;
* :mod:`repro.experiments` — one runner per paper figure;
* :mod:`repro.executor` — the real (thread-based) executor with the Canary
  checkpoint API, for running actual Python stateful functions.
"""

from repro.common.types import (
    RecoveryStrategyName,
    ReplicationStrategyName,
    RuntimeKind,
)
from repro.core.canary import CanaryPlatform
from repro.core.config import PlatformConfig
from repro.core.jobs import Job, JobRequest
from repro.core.scenario import ScenarioConfig
from repro.core.workflow import (
    WorkflowCoordinator,
    WorkflowRequest,
    WorkflowStage,
)
from repro.workloads.profiles import (
    ALL_WORKLOADS,
    MICRO_WORKLOADS,
    WorkloadProfile,
    get_workload,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "CanaryPlatform",
    "Job",
    "JobRequest",
    "MICRO_WORKLOADS",
    "PlatformConfig",
    "RecoveryStrategyName",
    "ReplicationStrategyName",
    "RuntimeKind",
    "ScenarioConfig",
    "WorkflowCoordinator",
    "WorkflowRequest",
    "WorkflowStage",
    "WorkloadProfile",
    "__version__",
    "get_workload",
]
