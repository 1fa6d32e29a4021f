"""Heartbeat-based failure detection (gray-failure chaos layer).

The paper's evaluation assumes fail-stop faults that the Core Module learns
about after a fixed delay (`repro.strategies.base.DETECTION_DELAY_S`).  This
package replaces that oracle, when enabled, with the mechanism real control
planes use: per-node heartbeats on the virtual clock feeding a
phi-accrual-style suspicion detector.  Detection latency becomes an
emergent distribution, and gray faults (stragglers, partitions) cause
*false* suspicions that cordon a node for placement and later reinstate it.

Everything here is off by default: a platform built without a
``DetectionConfig`` draws no RNG streams and schedules no events, so golden
pins stay byte-identical.
"""

from repro.detection.backoff import BackoffPolicy
from repro.detection.monitor import (
    DetectionConfig,
    DetectionModule,
    DetectionStats,
)

__all__ = [
    "BackoffPolicy",
    "DetectionConfig",
    "DetectionModule",
    "DetectionStats",
]
