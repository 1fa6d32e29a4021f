"""Admission control: per-tenant token buckets + global queue shedding.

Overload policy in two layers, checked in order:

1. **Global shedding** — when the platform backlog (queued jobs plus
   queued container requests) exceeds ``queue_shed_depth``, new arrivals
   are shed regardless of tenant.  This bounds queue growth, which is what
   keeps the latency of *admitted* requests bounded during overload.
2. **Per-tenant token bucket** — each tenant accrues ``tenant_rate_per_s``
   tokens (capped at ``tenant_burst``) on the virtual clock and spends one
   per admitted invocation.  A hot tenant exhausts its own bucket and gets
   shed; it cannot consume the platform's headroom, so well-behaved
   tenants keep being admitted (fairness isolation).

Everything runs on the virtual clock and draws no randomness, so admission
decisions are a pure function of the arrival stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning knobs for the admission layer.

    Attributes:
        tenant_rate_per_s: Steady-state admitted invocations/s per tenant;
            ``None`` disables the per-tenant buckets.
        tenant_burst: Bucket capacity (burst allowance) in invocations.
        queue_shed_depth: Backlog (queued jobs + queued container
            requests) beyond which all arrivals are shed; ``None``
            disables global shedding.
    """

    tenant_rate_per_s: Optional[float] = None
    tenant_burst: float = 10.0
    queue_shed_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tenant_rate_per_s is not None and self.tenant_rate_per_s <= 0:
            raise ValueError("tenant_rate_per_s must be positive or None")
        if self.tenant_burst < 1.0:
            raise ValueError("tenant_burst must be >= 1")
        if self.queue_shed_depth is not None and self.queue_shed_depth < 0:
            raise ValueError("queue_shed_depth must be non-negative")


class TokenBucket:
    """A deterministic token bucket on the virtual clock.

    ``anchor`` is the virtual time the bucket comes into existence; for
    tenants discovered mid-run (trace replay) it must be their first-seen
    time, or the first ``try_take`` would credit the whole run-so-far as
    elapsed refill and wave the initial burst through twice over.
    """

    def __init__(
        self, rate_per_s: float, burst: float, anchor: float = 0.0
    ) -> None:
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.tokens = burst
        self._last_refill = anchor

    def try_take(self, now: float) -> bool:
        """Refill for the elapsed virtual time, then spend one token."""
        elapsed = now - self._last_refill
        if elapsed > 0:
            self.tokens = min(
                self.burst, self.tokens + elapsed * self.rate_per_s
            )
            self._last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Applies :class:`AdmissionConfig` to a stream of arrivals."""

    def __init__(self, config: AdmissionConfig, tenants: list[str]) -> None:
        self.config = config
        self._buckets: dict[str, TokenBucket] = {}
        if config.tenant_rate_per_s is not None:
            self._buckets = {
                name: TokenBucket(
                    config.tenant_rate_per_s, config.tenant_burst
                )
                for name in tenants
            }
        self.shed_throttled = 0

    def admit(self, tenant: str, now: float, backlog: int) -> bool:
        """Decide one arrival; updates shed counters on rejection."""
        if (
            self.config.queue_shed_depth is not None
            and backlog > self.config.queue_shed_depth
        ):
            return False
        if self.config.tenant_rate_per_s is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                # Tenant not in the construction-time list (it surfaced
                # mid-run via a replayed trace): create its bucket lazily
                # at first sight, refill-anchored *now* — otherwise the
                # hot unknown tenant would bypass throttling entirely.
                bucket = TokenBucket(
                    self.config.tenant_rate_per_s,
                    self.config.tenant_burst,
                    anchor=now,
                )
                self._buckets[tenant] = bucket
            if not bucket.try_take(now):
                self.shed_throttled += 1
                return False
        return True
