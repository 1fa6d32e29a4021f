"""Scenario execution: build a platform, run it, summarize; repeat per seed."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.canary import CanaryPlatform
from repro.experiments.config import DEFAULT_SEEDS, ScenarioConfig
from repro.metrics.engine import EngineStats, collect_engine_stats
from repro.metrics.summary import RunSummary
from repro.trace.tracer import NullTracer, Span, Tracer


def _run_platform(
    scenario: ScenarioConfig,
    seed: int,
    tracer: Optional[NullTracer] = None,
) -> CanaryPlatform:
    """Build, load, and run the platform for one scenario/seed cell."""
    platform = CanaryPlatform(scenario, seed=seed, tracer=tracer)
    if scenario.traffic is None:
        # Classic closed-loop batch; with traffic enabled the arrival
        # stream is the only submission source.
        platform.submit_batch()
    platform.run()
    return platform


def run_scenario(scenario: ScenarioConfig, seed: int = 0) -> RunSummary:
    """Run one scenario once and return its summary."""
    return _run_platform(scenario, seed).summary()


@dataclass(frozen=True)
class TracedRun:
    """A scenario run plus the spans it emitted.

    Picklable on purpose: :func:`run_traced` is usable as the ``runner``
    for :func:`repro.experiments.parallel.run_cells`, and the trace
    determinism tests compare serial vs. pool-fanned results byte for
    byte after export.
    """

    summary: RunSummary
    spans: tuple[Span, ...]
    #: Event-queue health.  Diagnostics only — deliberately NOT part of
    #: the summary, so the byte-identity bar stays on summary + spans.
    engine: Optional[EngineStats] = None


def run_traced(scenario: ScenarioConfig, seed: int = 0) -> TracedRun:
    """Run one scenario with span tracing enabled.

    The tracer only *observes* the run (it reads the virtual clock and
    appends to a list), so the summary is identical to an untraced
    :func:`run_scenario` at the same seed.
    """
    tracer = Tracer()
    platform = _run_platform(scenario, seed, tracer=tracer)
    return TracedRun(
        summary=platform.summary(),
        spans=tracer.spans(),
        engine=collect_engine_stats(platform.sim),
    )


@dataclass(frozen=True)
class TrafficRun:
    """A traffic scenario's summary plus per-tenant detail.

    Picklable (plain dataclass of dicts/tuples) so it can be returned from
    :func:`repro.experiments.parallel.run_cells` workers, and the traffic
    determinism tests compare serial vs. fanned-out results exactly.
    """

    summary: RunSummary
    #: tenant name -> flat stats row (offered/admitted/shed/p99/...)
    tenants: dict[str, dict]
    #: autoscaler ramp record: (virtual time, "out"/"in", node_id)
    scale_events: tuple[tuple[float, str, str], ...]


def run_traffic(scenario: ScenarioConfig, seed: int = 0) -> TrafficRun:
    """Run a traffic-enabled scenario and keep the per-tenant breakdown."""
    if scenario.traffic is None:
        raise ValueError("scenario.traffic must be set for run_traffic")
    platform = _run_platform(scenario, seed)
    assert platform.traffic is not None
    return TrafficRun(
        summary=platform.summary(),
        tenants=platform.traffic.tenant_rows(),
        scale_events=(
            tuple(platform.autoscaler.events)
            if platform.autoscaler is not None
            else ()
        ),
    )


def run_repeated(
    scenario: ScenarioConfig,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    *,
    jobs: Optional[int] = 1,
) -> list[RunSummary]:
    """Run a scenario once per seed (paper: averages of 10 executions).

    ``jobs`` fans the per-seed runs out over worker processes via
    :func:`repro.experiments.parallel.run_cells`; the default of 1 runs
    them in-process.  Results are seed-ordered either way, and a seed that
    raises surfaces as ``CellExecutionError`` for every ``jobs``.
    """
    from repro.experiments.parallel import run_cells  # avoid import cycle

    return run_cells([(scenario, seed) for seed in seeds], jobs=jobs)


#: Summary fields :func:`mean_of` averages over the seeds, counts included.
_MEAN_FIELDS = (
    "makespan_s", "total_recovery_s", "mean_recovery_s", "cost_total",
    "cost_function", "cost_replica", "cost_standby", "checkpoint_time_s",
    "failures", "unrecovered", "completed", "checkpoints_taken",
    "replicas_launched",
)


def mean_of(summaries: Iterable[RunSummary]) -> dict:
    """Average the per-seed summaries into one row dict.

    Time, cost and count fields are all averaged, so counts read "per
    run" (failures per run, not failures summed over seeds), and the
    relative spread of the makespan is attached as
    ``makespan_rel_spread`` (the paper reports <5% variance across runs).
    """
    rows = list(summaries)
    if not rows:
        raise ValueError("no summaries to average")
    out: dict = {
        "strategy": rows[0].strategy,
        "workload": rows[0].workload,
        "error_rate": rows[0].error_rate,
        "num_functions": rows[0].num_functions,
        "num_nodes": rows[0].num_nodes,
        "runs": len(rows),
    }
    for name in _MEAN_FIELDS:
        values = [getattr(r, name) for r in rows]
        out[name] = sum(values) / len(values)
    makespans = [r.makespan_s for r in rows]
    mean_mk = sum(makespans) / len(makespans)
    if mean_mk > 0 and len(makespans) > 1:
        var = sum((m - mean_mk) ** 2 for m in makespans) / (len(makespans) - 1)
        out["makespan_rel_spread"] = math.sqrt(var) / mean_mk
    else:
        out["makespan_rel_spread"] = 0.0
    return out
