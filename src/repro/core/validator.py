"""Request Validator Module (§IV-C-2).

Prevents *request* and *concurrency* failures (§II-A) before Canary starts
processing a job: resource requests are checked against platform limits, and
jobs whose functions would exceed the account's concurrent-invocation limit
are queued by the Core Module instead of being rejected by the platform
mid-flight.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import ResourceLimitError
from repro.core.jobs import JobRequest
from repro.faas.limits import PlatformLimits


class ValidationResult(str, enum.Enum):
    ADMIT = "admit"    # run now
    QUEUE = "queue"    # valid, but must wait for concurrency headroom
    REJECT = "reject"  # violates hard platform limits


@dataclass(frozen=True)
class ValidationReport:
    result: ValidationResult
    reason: str = ""


class RequestValidator:
    """Validates job requests against platform limits."""

    def __init__(self, limits: PlatformLimits) -> None:
        self.limits = limits

    def validate(
        self, request: JobRequest, active_invocations: int
    ) -> ValidationReport:
        """Classify *request* given the current concurrency usage.

        Hard violations (memory, timeout, job size, a job larger than the
        concurrent-invocation cap itself) → REJECT.
        Soft violations (would exceed the concurrent-invocation cap) → QUEUE,
        matching §IV-C-2: "the Request Validator Module notifies the Core
        Module which queues the job until there is enough limit available".
        """
        if request.function_memory_bytes > self.limits.max_function_memory_bytes:
            return ValidationReport(
                ValidationResult.REJECT,
                f"requested memory {request.function_memory_bytes:.0f}B exceeds "
                f"limit {self.limits.max_function_memory_bytes:.0f}B",
            )
        timeout = request.timeout_s
        if timeout is not None and timeout > self.limits.max_function_timeout_s:
            return ValidationReport(
                ValidationResult.REJECT,
                f"requested timeout {timeout}s exceeds limit "
                f"{self.limits.max_function_timeout_s}s",
            )
        if request.num_functions > self.limits.max_job_functions:
            return ValidationReport(
                ValidationResult.REJECT,
                f"{request.num_functions} functions exceeds per-job cap "
                f"{self.limits.max_job_functions}",
            )
        if request.num_functions > self.limits.max_concurrent_invocations:
            # Even an idle account could never admit it: queueing would
            # hold the job forever.
            return ValidationReport(
                ValidationResult.REJECT,
                f"{request.num_functions} functions exceeds the concurrency "
                f"limit {self.limits.max_concurrent_invocations}",
            )
        if (
            active_invocations + request.num_functions
            > self.limits.max_concurrent_invocations
        ):
            return ValidationReport(
                ValidationResult.QUEUE,
                f"{request.num_functions} new + {active_invocations} active "
                f"would exceed the concurrency limit "
                f"{self.limits.max_concurrent_invocations}",
            )
        return ValidationReport(ValidationResult.ADMIT)

    def require_valid(self, request: JobRequest) -> None:
        """Raise on hard violations (used by the local executor front door)."""
        report = self.validate(request, active_invocations=0)
        if report.result is ValidationResult.REJECT:
            raise ResourceLimitError(report.reason)
