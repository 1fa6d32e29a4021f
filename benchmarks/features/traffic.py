"""Open-loop multi-tenant traffic + autoscaling → ``BENCH_traffic.json``.

Four cells exercise the S38 traffic/autoscale subsystem end to end:

* **sustained** — three tenants (Poisson / diurnal / bursty) offering
  ~21 invocations/s for ~83 virtual minutes: >=10^5 invocations through
  the admission queue with per-tenant streaming latency quantiles, at a
  load just under the cluster's knee so the queue stays in steady state.
* **ramp** — a bursty tenant drives the node autoscaler through a full
  cycle; both scale-out and scale-in events must appear.
* **overload** — offered load is ~3x cluster capacity; admission control
  sheds, and the p99 of *admitted* invocations stays bounded (the whole
  point of shedding).
* **chaos-ramp** — a zombie gray failure lands mid-ramp, so detection,
  chaos, and the autoscaler compete over the same node set.

The ``traffic.*`` rows of ``FEATURE_CLAIMS`` hold each cell to its bar.
"""

from __future__ import annotations

from repro.autoscale import AdmissionConfig, AutoscaleConfig
from repro.detection import BackoffPolicy, DetectionConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_traffic
from repro.faults.chaos import ChaosConfig
from repro.sla.policy import SLAPolicy
from repro.traffic import (
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    Tenant,
    TrafficConfig,
)

SEED = 0
DEADLINE = SLAPolicy(deadline_s=30.0)

#: sustained cell: mean offered rate ~21/s for 5000 s -> ~105k invocations.
#: ~21/s on 32 nodes sits just under the cluster's measured knee (cold
#: start + replica pool + invoker cold-start contention), so the queue
#: reaches a steady state instead of collapsing — the
#: ``traffic.sustained-p99`` row is the regression guard for that.
SUSTAINED_DURATION_S = 5000.0

RAMP_DURATION_S = 240.0
RAMP_PHASE_S = (20.0, 40.0)
OVERLOAD_DURATION_S = 120.0

RAMP_AUTOSCALE = AutoscaleConfig(
    min_nodes=4,
    max_nodes=16,
    cooldown_out_s=2.0,
    cooldown_in_s=8.0,
    boot_delay_s=1.0,
)


def _t(name, arrivals):
    return Tenant(
        name=name,
        arrivals=arrivals,
        workloads=("micro-python",),
        sla=DEADLINE,
    )


def sustained_scenario() -> ScenarioConfig:
    tenants = (
        _t("steady", PoissonArrivals(rate_per_s=11.0)),
        _t(
            "diurnal",
            DiurnalArrivals(
                base_rate_per_s=6.25, amplitude=0.5, period_s=600.0
            ),
        ),
        _t(
            "bursty",
            OnOffArrivals(
                on_rate_per_s=11.25, mean_on_s=10.0, mean_off_s=20.0
            ),
        ),
    )
    return ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.02,
        num_nodes=32,
        traffic=TrafficConfig(tenants=tenants, duration_s=SUSTAINED_DURATION_S),
    )


def ramp_scenario(chaos: bool = False) -> ScenarioConfig:
    tenants = (
        _t(
            "burst",
            OnOffArrivals(
                on_rate_per_s=24.0,
                mean_on_s=RAMP_PHASE_S[0],
                mean_off_s=RAMP_PHASE_S[1],
            ),
        ),
    )
    kwargs = {}
    if chaos:
        kwargs = dict(
            chaos=ChaosConfig(
                zombies=1, zombie_window=(20.0, 21.0), zombie_kill_after_s=40.0
            ),
            detection=DetectionConfig(),
            backoff=BackoffPolicy(),
        )
    return ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.0,
        num_nodes=4,
        traffic=TrafficConfig(tenants=tenants, duration_s=RAMP_DURATION_S),
        autoscale=RAMP_AUTOSCALE,
        **kwargs,
    )


def overload_scenario() -> ScenarioConfig:
    # The two tenants offer ~44/s against a 4-node cluster whose measured
    # knee (cold start + replica pool + invoker cold-start contention) sits
    # near 3-4 admitted invocations/s.  The token buckets cap each tenant
    # at 1.5/s so admitted work stays left of the knee; everything else is
    # shed at the door instead of rotting in a queue.
    tenants = (
        _t("hog", PoissonArrivals(rate_per_s=40.0)),
        _t("quiet", PoissonArrivals(rate_per_s=4.0)),
    )
    admission = AdmissionConfig(
        tenant_rate_per_s=1.5, tenant_burst=3.0, queue_shed_depth=8
    )
    return ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.0,
        num_nodes=4,
        traffic=TrafficConfig(
            tenants=tenants,
            duration_s=OVERLOAD_DURATION_S,
            admission=admission,
        ),
    )


def _row(cell: str, result) -> dict:
    summary = result.summary
    return {
        "cell": cell,
        "offered": summary.invocations_offered,
        "shed": summary.invocations_shed,
        "slo_violations": summary.slo_violations,
        "latency_p50_s": round(summary.latency_p50_s, 6),
        "latency_p99_s": round(summary.latency_p99_s, 6),
        "latency_p999_s": round(summary.latency_p999_s, 6),
        "scale_outs": summary.scale_outs,
        "scale_ins": summary.scale_ins,
        "nodes_peak": summary.nodes_peak,
        "makespan_s": round(summary.makespan_s, 3),
        "tenants": result.tenants,
    }


def run() -> dict:
    cells = {
        "sustained": run_traffic(sustained_scenario(), seed=SEED),
        "ramp": run_traffic(ramp_scenario(), seed=SEED),
        "overload": run_traffic(overload_scenario(), seed=SEED),
        "chaos-ramp": run_traffic(ramp_scenario(chaos=True), seed=SEED),
    }
    return {
        "seed": SEED,
        "sustained_duration_s": SUSTAINED_DURATION_S,
        "ramp_duration_s": RAMP_DURATION_S,
        "overload_duration_s": OVERLOAD_DURATION_S,
        "rows": [_row(cell, result) for cell, result in cells.items()],
        "ramp_events": [
            [round(t, 3), d, n] for t, d, n in cells["ramp"].scale_events
        ],
    }
