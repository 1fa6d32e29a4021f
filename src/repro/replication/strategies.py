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

#: DR: margin on the failures expected inside one replacement window.
DR_HEADROOM = 1.5
#: DR: pool size floor.
DR_MIN_REPLICAS = 1
#: DR: pool size cap, as a fraction of the runtime's functions.
DR_MAX_FRACTION = 0.5
#: AR: fraction of the runtime's functions kept replicated.
AR_FACTOR = 0.5
#: AR: pool size floor.
AR_MIN_REPLICAS = 2


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
    ``target = ceil(λ × window × DR_HEADROOM)``, clamped to
    ``[DR_MIN_REPLICAS, DR_MAX_FRACTION × functions]``.

    This is what puts DR's cost just above LR's single replica at low error
    rates yet lets the pool grow under failure bursts — the optimal operating
    point of §V-D-4/Fig. 9.
    """

    name = ReplicationStrategyName.DYNAMIC

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
        want = math.ceil(in_flight * DR_HEADROOM)
        cap = max(DR_MIN_REPLICAS, math.ceil(DR_MAX_FRACTION * total_functions))
        return max(DR_MIN_REPLICAS, min(want, cap))


class AggressiveReplication(ReplicationStrategy):
    """AR: replicate a high fixed fraction of running functions."""

    name = ReplicationStrategyName.AGGRESSIVE

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
        return max(AR_MIN_REPLICAS, math.ceil(AR_FACTOR * total_functions))


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
