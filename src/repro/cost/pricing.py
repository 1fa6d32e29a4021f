"""FaaS pricing models and cost aggregation.

The paper prices execution at IBM Cloud Functions' $0.000017 per GB-second
(AWS Lambda's $0.0000167 is "comparable"), and aggregates the cost of all
concurrent containers — including replicated runtimes, RR siblings, and AS
standbys, which is exactly where the baselines lose (Fig. 8–10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.faas.container import Container, ContainerPurpose


@dataclass(frozen=True)
class PricingModel:
    """Per-GB-second billing."""

    name: str
    price_per_gb_s: float

    def cost(self, gb_seconds: float) -> float:
        if gb_seconds < 0:
            raise ValueError("gb_seconds must be non-negative")
        return gb_seconds * self.price_per_gb_s


IBM_CLOUD_FUNCTIONS_PRICING = PricingModel(
    name="ibm-cloud-functions", price_per_gb_s=0.000017
)
AWS_LAMBDA_PRICING = PricingModel(name="aws-lambda", price_per_gb_s=0.0000167)


@dataclass
class CostBreakdown:
    """Dollar cost split by container purpose."""

    function_cost: float = 0.0
    replica_cost: float = 0.0
    standby_cost: float = 0.0
    function_gb_s: float = 0.0
    replica_gb_s: float = 0.0
    standby_gb_s: float = 0.0
    containers: int = 0

    @property
    def total(self) -> float:
        return self.function_cost + self.replica_cost + self.standby_cost


def compute_cost(
    containers: Iterable[Container],
    now: float,
    pricing: PricingModel = IBM_CLOUD_FUNCTIONS_PRICING,
) -> CostBreakdown:
    """Aggregate the billed cost of every container that ever ran."""
    breakdown = CostBreakdown()
    for container in containers:
        gb_s = container.billed_gb_seconds(now)
        dollars = pricing.cost(gb_s)
        breakdown.containers += 1
        if container.purpose == ContainerPurpose.REPLICA:
            breakdown.replica_cost += dollars
            breakdown.replica_gb_s += gb_s
        elif container.purpose == ContainerPurpose.STANDBY:
            breakdown.standby_cost += dollars
            breakdown.standby_gb_s += gb_s
        else:
            breakdown.function_cost += dollars
            breakdown.function_gb_s += gb_s
    return breakdown
