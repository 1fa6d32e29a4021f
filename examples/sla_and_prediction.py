#!/usr/bin/env python
"""The §VII extensions in action: SLA-aware recovery + failure prediction.

Part 1 — **SLA-aware recovery**: the same failing job runs with a tight
and a loose deadline.  With a tight deadline the strategy spends warm
replicas on every recovery; with a loose one it recovers cold and keeps
the replica bill minimal.

Part 2 — **failure prediction**: a node death preceded by a fault burst.
With prediction enabled the platform cordons and drains the node before
it dies, cutting the correlated losses.

Run:
    python examples/sla_and_prediction.py
"""

from repro import CanaryPlatform, JobRequest, ScenarioConfig, get_workload
from repro.sla.policy import SLAPolicy
from repro.workloads.profiles import WorkloadProfile
from repro.common.types import RuntimeKind
from repro.common.units import KiB, mb

JOB_WORKLOAD = WorkloadProfile(
    name="sla-demo",
    runtime=RuntimeKind.PYTHON,
    n_states=5,
    state_duration_s=3.0,
    state_jitter=0.05,
    checkpoint_size_bytes=512 * KiB,
    serialize_overhead_s=0.02,
    finish_s=0.2,
    memory_bytes=mb(256),
)


def sla_part() -> None:
    print("=== SLA-aware recovery (40% error rate) ===")
    print(f"{'deadline':>9s} {'replica recoveries':>19s} "
          f"{'cold (pool saved)':>18s} {'hits':>5s} {'miss':>5s} "
          f"{'replica $':>10s}")
    for label, deadline in (("tight", 28.0), ("loose", 300.0)):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=8,
                strategy="canary-sla",
                error_rate=0.4,
                refailure_rate=0.0,
            ),
            seed=11,
        )
        platform.submit_job(
            JobRequest(
                workload=JOB_WORKLOAD,
                num_functions=40,
                sla=SLAPolicy(deadline_s=deadline),
            )
        )
        platform.run()
        strategy = platform.strategy
        summary = platform.summary()
        print(
            f"{label:>9s} {strategy.recoveries_via_replica:19d} "
            f"{strategy.pool_preserved:18d} {strategy.deadline_hits:5d} "
            f"{strategy.deadline_misses:5d} ${summary.cost_replica:9.4f}"
        )
    print()


def prediction_part() -> None:
    print("=== failure prediction & proactive drain ===")
    print(f"{'prediction':>10s} {'node-failure losses':>20s} "
          f"{'migrations':>11s} {'total recovery':>15s}")
    for enabled in (False, True):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=8,
                strategy="canary",
                error_rate=0.05,
                node_failure_count=2,
                node_failure_window=(8.0, 25.0),
                node_failure_precursors=3,
                prediction=enabled,
            ),
            seed=11,
        )
        platform.submit_job(
            JobRequest(workload=get_workload("graph-bfs"), num_functions=100)
        )
        platform.run()
        losses = sum(
            1
            for e in platform.metrics.failures
            if e.reason.startswith("node-failure")
        )
        migrations = (
            platform.mitigator.migrations if platform.mitigator else 0
        )
        print(
            f"{'on' if enabled else 'off':>10s} {losses:20d} "
            f"{migrations:11d} "
            f"{platform.metrics.total_recovery_time():13.1f}s"
        )


def main() -> None:
    sla_part()
    prediction_part()


if __name__ == "__main__":
    main()
