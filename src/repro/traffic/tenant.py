"""Tenants and the multi-tenant traffic configuration.

A :class:`Tenant` bundles an arrival process, the workloads it draws from
uniformly, and an optional :class:`~repro.sla.policy.SLAPolicy`.  Each
tenant draws from its own named RNG stream (``traffic:<name>``), so adding
or removing a tenant never perturbs the arrival times of the others — the
same stream-isolation contract the rest of the platform builds on.

:func:`generate_invocations` materializes every tenant's stream and merges
them under the total order ``(at_s, tenant_index, seq)``: equal-time
arrivals from different tenants (or from one bursty tenant) replay in one
deterministic sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sla.policy import SLAPolicy
from repro.traffic.arrivals import ArrivalProcess
from repro.workloads.profiles import get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autoscale.admission import AdmissionConfig
    from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class Tenant:
    """One traffic source: arrivals, workloads, and an SLO.

    Attributes:
        name: Unique tenant id (also names the RNG stream).
        arrivals: Arrival process generating this tenant's timestamps.
        workloads: Workload names each invocation draws from uniformly.
        functions_per_invocation: Functions per submitted job (1 = a plain
            function invocation; >1 models a fan-out workflow trigger).
        sla: Deadline policy; latencies beyond ``sla.deadline_s`` count as
            SLO violations in the run summary.
    """

    name: str
    arrivals: ArrivalProcess
    workloads: tuple[str, ...]
    functions_per_invocation: int = 1
    sla: Optional[SLAPolicy] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.workloads:
            raise ValueError("tenant needs at least one workload")
        for workload in self.workloads:
            get_workload(workload)  # raises on unknown names
        if self.functions_per_invocation <= 0:
            raise ValueError("functions_per_invocation must be positive")

    @property
    def stream_name(self) -> str:
        return f"traffic:{self.name}"


@dataclass(frozen=True)
class TrafficConfig:
    """The full open-loop traffic description for one run.

    Attributes:
        tenants: Traffic sources, merged into one arrival stream.
        duration_s: Generation horizon; arrivals beyond it are not emitted
            (in-flight work still drains after the horizon).
        admission: Optional admission control (per-tenant token bucket +
            global shedding); ``None`` admits everything.
    """

    tenants: tuple[Tenant, ...]
    duration_s: float
    admission: Optional["AdmissionConfig"] = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("traffic needs at least one tenant")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique: {names}")


@dataclass(frozen=True)
class Invocation:
    """One scheduled invocation of one tenant's workload."""

    at_s: float
    tenant: str
    tenant_index: int
    seq: int
    workload: str


def _workload_choices(
    tenant: Tenant, rng: np.random.Generator, n: int
) -> np.ndarray:
    if len(tenant.workloads) == 1:
        return np.zeros(n, dtype=int)
    probabilities = np.full(len(tenant.workloads), 1.0 / len(tenant.workloads))
    cumulative = np.cumsum(probabilities)
    choices = np.searchsorted(cumulative, rng.random(n), side="right")
    return np.minimum(choices, len(tenant.workloads) - 1)


def generate_invocations(
    rng: "RngRegistry", config: TrafficConfig
) -> list[Invocation]:
    """Materialize and merge every tenant's arrival stream.

    One bulk draw per tenant from its own ``traffic:<name>`` stream, then a
    single merge sort under ``(at_s, tenant_index, seq)`` — the total order
    that keeps equal-time ties deterministic.
    """
    invocations: list[Invocation] = []
    for tenant_index, tenant in enumerate(config.tenants):
        stream = rng.stream(tenant.stream_name)
        times = tenant.arrivals.times(stream, config.duration_s)
        choices = _workload_choices(tenant, stream, len(times))
        invocations.extend(
            Invocation(
                at_s=float(t),
                tenant=tenant.name,
                tenant_index=tenant_index,
                seq=seq,
                workload=tenant.workloads[int(c)],
            )
            for seq, (t, c) in enumerate(zip(times, choices))
        )
    invocations.sort(key=lambda i: (i.at_s, i.tenant_index, i.seq))
    return invocations
