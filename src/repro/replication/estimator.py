"""On-line failure-rate estimation for dynamic replication.

Dynamic replication "adjusts the replication factor based on the failure
rate" (§V-D-4).  The estimator blends a Bayesian-style prior with the
observed failure fraction so the factor is sane before any outcome has been
seen and converges to the empirical rate as evidence accumulates.
"""

from __future__ import annotations

#: Assumed failure rate before observations.
PRIOR_RATE = 0.05
#: Pseudo-observation count behind the prior; larger values make the
#: estimate slower to move.
PRIOR_STRENGTH = 10.0


class FailureRateEstimator:
    """Beta-prior estimate of the per-function failure probability."""

    def __init__(self) -> None:
        self.failures = 0
        self.successes = 0

    def record_failure(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.failures += count

    def record_success(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.successes += count

    @property
    def observations(self) -> int:
        return self.failures + self.successes

    @property
    def rate(self) -> float:
        """Posterior-mean failure rate in [0, 1]."""
        pseudo_failures = PRIOR_RATE * PRIOR_STRENGTH
        total = self.observations + PRIOR_STRENGTH
        return (self.failures + pseudo_failures) / total

    def reset(self) -> None:
        self.failures = 0
        self.successes = 0
