"""TrafficSource: replay a multi-tenant invocation stream onto a platform.

The source walks the merged ``(at_s, tenant_index, seq)``-ordered stream as
a *chain* of virtual-clock events — each arrival schedules the next — so a
10^5-invocation run keeps one pending event instead of heaping the whole
trace up front.

Per arrival: admission control decides (token bucket + global shedding),
admitted invocations become :class:`~repro.core.jobs.JobRequest` s through
the platform's existing admission queue, and the job-completion callback
folds every function's latency into the tenant's streaming quantile
sketch, counting SLO violations against the tenant's deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.autoscale.admission import AdmissionController
from repro.core.jobs import JobRequest
from repro.metrics.quantiles import LatencySketch
from repro.traffic.tenant import (
    Invocation,
    Tenant,
    TrafficConfig,
    generate_invocations,
)
from repro.workloads.profiles import get_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.canary import CanaryPlatform


@dataclass
class TenantStats:
    """Per-tenant traffic counters plus the latency sketch."""

    offered: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    slo_violations: int = 0
    sketch: LatencySketch = field(default_factory=LatencySketch)

    def row(self) -> dict:
        """Flat dict for bench tables / JSON artifacts."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "slo_violations": self.slo_violations,
            "latency_p50_s": round(self.sketch.p50(), 6),
            "latency_p99_s": round(self.sketch.p99(), 6),
            "latency_p999_s": round(self.sketch.p999(), 6),
            "latency_mean_s": round(self.sketch.mean, 6),
        }


class TrafficSource:
    """Drives one :class:`TrafficConfig` through a platform's clock."""

    def __init__(
        self, platform: "CanaryPlatform", config: TrafficConfig
    ) -> None:
        self.platform = platform
        self.config = config
        self._tenants: dict[str, Tenant] = {
            t.name: t for t in config.tenants
        }
        self.invocations: list[Invocation] = generate_invocations(
            platform.sim.rng, config
        )
        self._cursor = 0
        self.admission: Optional[AdmissionController] = None
        if config.admission is not None:
            self.admission = AdmissionController(
                config.admission, [t.name for t in config.tenants]
            )
        self.stats: dict[str, TenantStats] = {
            t.name: TenantStats() for t in config.tenants
        }
        self._started = False

    # ------------------------------------------------------------------
    # Replay chain
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the arrival chain (idempotent)."""
        if self._started or not self.invocations:
            self._started = True
            return
        self._started = True
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self._cursor >= len(self.invocations):
            return
        invocation = self.invocations[self._cursor]
        self.platform.sim.call_at(
            max(invocation.at_s, self.platform.sim.now),
            self._fire,
            label=f"traffic:{invocation.tenant}",
        )

    def _fire(self) -> None:
        invocation = self.invocations[self._cursor]
        self._cursor += 1
        self._submit(invocation)
        self._schedule_next()
        self.platform.check_idle()

    def _backlog(self) -> int:
        platform = self.platform
        return len(platform._pending_jobs) + platform.controller.queue_depth()

    def _submit(self, invocation: Invocation) -> None:
        tenant = self._tenants[invocation.tenant]
        stats = self.stats[invocation.tenant]
        stats.offered += 1
        if self.admission is not None and not self.admission.admit(
            invocation.tenant, self.platform.sim.now, self._backlog()
        ):
            stats.shed += 1
            return
        stats.admitted += 1
        request = JobRequest(
            workload=get_workload(invocation.workload),
            num_functions=tenant.functions_per_invocation,
            sla=tenant.sla,
        )
        self.platform.submit_job(
            request,
            on_complete=lambda job, name=invocation.tenant: (
                self._record_completion(name, job)
            ),
        )

    # ------------------------------------------------------------------
    # Latency accounting
    # ------------------------------------------------------------------
    def _record_completion(self, tenant_name: str, job) -> None:
        tenant = self._tenants[tenant_name]
        stats = self.stats[tenant_name]
        deadline = tenant.sla.deadline_s if tenant.sla is not None else None
        for execution in job.executions:
            latency = execution.latency
            stats.completed += 1
            stats.sketch.add(latency)
            if deadline is not None and latency > deadline:
                stats.slo_violations += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_arrivals(self) -> int:
        """Arrivals not yet fired (keep-alive signal for detection etc.)."""
        return len(self.invocations) - self._cursor

    def totals(self) -> dict:
        """Cross-tenant aggregates for :class:`RunSummary`."""
        merged = LatencySketch()
        offered = shed = violations = 0
        for stats in self.stats.values():
            merged.merge(stats.sketch)
            offered += stats.offered
            shed += stats.shed
            violations += stats.slo_violations
        return {
            "invocations_offered": offered,
            "invocations_shed": shed,
            "slo_violations": violations,
            "latency_p50_s": merged.p50(),
            "latency_p99_s": merged.p99(),
            "latency_p999_s": merged.p999(),
        }

    def tenant_rows(self) -> dict[str, dict]:
        """Per-tenant stat rows keyed by tenant name (bench artifacts)."""
        return {name: stats.row() for name, stats in self.stats.items()}
