"""SLA policies: per-function deadlines and slack classification."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class SlackClass(str, enum.Enum):
    """How much breathing room a recovering function has."""

    CRITICAL = "critical"      # cannot afford a cold start
    TIGHT = "tight"            # replica strongly preferred
    COMFORTABLE = "comfortable"  # either path meets the deadline
    NONE = "none"              # no deadline attached


#: Slack below ``CRITICAL_MARGIN × cold_start`` is CRITICAL (recovery must
#: avoid any cold start).
CRITICAL_MARGIN = 1.0
#: Slack above ``COMFORTABLE_MARGIN × cold_start`` is COMFORTABLE (a cold,
#: pool-preserving recovery is fine).
COMFORTABLE_MARGIN = 3.0


@dataclass(frozen=True)
class SLAPolicy:
    """User requirements attached to a job.

    Attributes:
        deadline_s: Target completion latency per function, measured from
            its submission.  ``None`` disables deadline logic.
    """

    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")


def classify_slack(
    policy: SLAPolicy,
    *,
    now: float,
    submitted_at: float,
    estimated_remaining_s: float,
    cold_start_s: float,
) -> SlackClass:
    """Classify a recovering function's deadline slack.

    ``slack = deadline − elapsed − remaining work``: the time budget left
    for recovery overhead.
    """
    if policy.deadline_s is None:
        return SlackClass.NONE
    elapsed = now - submitted_at
    slack = policy.deadline_s - elapsed - estimated_remaining_s
    if slack < CRITICAL_MARGIN * cold_start_s:
        return SlackClass.CRITICAL
    if slack < COMFORTABLE_MARGIN * cold_start_s:
        return SlackClass.TIGHT
    return SlackClass.COMFORTABLE
