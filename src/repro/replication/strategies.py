"""Replica-count strategies: dynamic (DR), aggressive (AR), lenient (LR).

Each strategy answers one question from Algorithm 2: given the total number
of functions using a runtime and the current replica population, how many
replicas *should* exist?  The three policies are compared in Fig. 9:

* **DR** (Canary default) sizes the pool to the expected number of
  concurrent failures (estimated failure rate × running functions).
* **AR** keeps a high fixed fraction of the running functions replicated —
  lowest recovery latency, highest cost.
* **LR** keeps exactly one active replica per job — lowest cost, but
  recovery degrades to cold starts when failures burst.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.common.types import ReplicationStrategyName
from repro.replication.estimator import FailureRateEstimator


class ReplicationStrategy(ABC):
    """Computes the target replica count for one (job, runtime) pair."""

    name: ReplicationStrategyName

    @abstractmethod
    def target_replicas(
        self,
        *,
        total_functions: int,
        active_replicas: int,
        estimator: FailureRateEstimator,
        mean_function_duration_s: float = 60.0,
        replacement_window_s: float = 5.0,
    ) -> int:
        """Desired replica-pool size (``rep_req`` accumulated in Alg. 2).

        ``mean_function_duration_s`` and ``replacement_window_s`` feed the
        dynamic strategy's arrival-rate model; the fixed strategies ignore
        them.
        """


class DynamicReplication(ReplicationStrategy):
    """DR: pool sized to the failure *arrival rate*.

    A claimed replica is replaced within roughly one cold start, so the pool
    only needs to absorb the failures that arrive inside that replacement
    window, not every failure the job will ever see:

    ``λ = rate × functions / mean_duration`` (failures per second), and
    ``target = ceil(λ × window × headroom)``, clamped to
    ``[min_replicas, max_fraction × functions]``.

    This is what puts DR's cost just above LR's single replica at low error
    rates yet lets the pool grow under failure bursts — the optimal operating
    point of §V-D-4/Fig. 9.
    """

    name = ReplicationStrategyName.DYNAMIC

    def __init__(
        self,
        *,
        headroom: float = 1.5,
        min_replicas: int = 1,
        max_fraction: float = 0.5,
    ) -> None:
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        if min_replicas < 0:
            raise ValueError("min_replicas must be non-negative")
        if not 0.0 < max_fraction <= 1.0:
            raise ValueError("max_fraction must be in (0, 1]")
        self.headroom = headroom
        self.min_replicas = min_replicas
        self.max_fraction = max_fraction

    def target_replicas(
        self,
        *,
        total_functions: int,
        active_replicas: int,
        estimator: FailureRateEstimator,
        mean_function_duration_s: float = 60.0,
        replacement_window_s: float = 5.0,
    ) -> int:
        if total_functions <= 0:
            return 0
        duration = max(mean_function_duration_s, 1e-6)
        arrival_rate = estimator.rate * total_functions / duration
        in_flight = arrival_rate * replacement_window_s
        want = math.ceil(in_flight * self.headroom)
        cap = max(
            self.min_replicas, math.ceil(self.max_fraction * total_functions)
        )
        return max(self.min_replicas, min(want, cap))


class AggressiveReplication(ReplicationStrategy):
    """AR: replicate a high fixed fraction of running functions."""

    name = ReplicationStrategyName.AGGRESSIVE

    def __init__(self, *, factor: float = 0.5, min_replicas: int = 2) -> None:
        if not 0.0 < factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        if min_replicas < 0:
            raise ValueError("min_replicas must be non-negative")
        self.factor = factor
        self.min_replicas = min_replicas

    def target_replicas(
        self,
        *,
        total_functions: int,
        active_replicas: int,
        estimator: FailureRateEstimator,
        mean_function_duration_s: float = 60.0,
        replacement_window_s: float = 5.0,
    ) -> int:
        if total_functions <= 0:
            return 0
        return max(self.min_replicas, math.ceil(self.factor * total_functions))


class LenientReplication(ReplicationStrategy):
    """LR: one active replica per job, regardless of scale."""

    name = ReplicationStrategyName.LENIENT

    def target_replicas(
        self,
        *,
        total_functions: int,
        active_replicas: int,
        estimator: FailureRateEstimator,
        mean_function_duration_s: float = 60.0,
        replacement_window_s: float = 5.0,
    ) -> int:
        return 1 if total_functions > 0 else 0


def make_replication_strategy(
    name: ReplicationStrategyName | str,
) -> ReplicationStrategy:
    """Factory from enum/string name."""
    name = ReplicationStrategyName(name)
    if name is ReplicationStrategyName.DYNAMIC:
        return DynamicReplication()
    if name is ReplicationStrategyName.AGGRESSIVE:
        return AggressiveReplication()
    if name is ReplicationStrategyName.LENIENT:
        return LenientReplication()
    raise ValueError(f"unknown replication strategy {name!r}")
