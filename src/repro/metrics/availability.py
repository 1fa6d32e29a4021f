"""Availability accounting.

The paper's headline includes "improves application availability".  We
quantify availability as the fraction of total function wall-time spent
making forward progress — i.e. everything except the recovery overhead
(detection, relaunch/adoption, restore, and redone work):

    availability = 1 − Σ recovery_time / Σ function latency

An ideal failure-free run scores 1.0; a retry run at a high error rate
loses a large slice of its wall-time to repeated restarts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.canary import CanaryPlatform


def total_function_time(platform: CanaryPlatform) -> float:
    """Σ of per-function latencies (admission → completion)."""
    return sum(
        execution.latency
        for job in platform.jobs.values()
        for execution in job.executions
        if execution.latency is not None
    )


def availability(platform: CanaryPlatform) -> float:
    """Forward-progress fraction in [0, 1] (1.0 when failure-free)."""
    busy = total_function_time(platform)
    if busy <= 0:
        return 1.0
    lost = platform.metrics.total_recovery_time()
    return max(0.0, min(1.0, 1.0 - lost / busy))
