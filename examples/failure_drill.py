#!/usr/bin/env python
"""Failure drill: node loss, replication strategies, and the cost bill.

A deeper tour of the simulated platform:

1. a 16-node cluster runs a DL job while a node dies mid-flight — Canary
   restores the lost functions from checkpoints in shared storage;
2. the same job is repeated under the three replication policies
   (dynamic / aggressive / lenient) to show the cost-vs-recovery trade;
3. the IBM Cloud Functions bill is broken down by container purpose.

Run:
    python examples/failure_drill.py
"""

from repro import CanaryPlatform, JobRequest, ScenarioConfig, get_workload

WORKLOAD = get_workload("dl-training")


def drill_node_failure() -> None:
    print("=== 1. node failure during a DL job (Canary) ===")
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=16,
            strategy="canary",
            error_rate=0.05,
            node_failure_count=1,
            node_failure_window=(20.0, 80.0),
        ),
        seed=3,
    )
    platform.submit_job(JobRequest(workload=WORKLOAD, num_functions=100))
    platform.run()
    summary = platform.summary()
    node_events = [
        e for e in platform.metrics.failures
        if e.reason.startswith("node-failure")
    ]
    print(f"alive nodes after drill : {len(platform.cluster.alive_nodes())}/16")
    print(f"functions lost to node  : {len(node_events)}")
    print(f"all recovered           : {summary.unrecovered == 0}")
    print(f"mean recovery time      : {summary.mean_recovery_s:.2f}s")
    print(f"makespan                : {summary.makespan_s:.1f}s\n")


def drill_replication_strategies() -> None:
    print("=== 2. replication strategies (25% error rate) ===")
    print(f"{'policy':12s} {'makespan':>9s} {'replica $':>10s} {'total $':>9s}")
    for policy in ("dynamic", "aggressive", "lenient"):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=16,
                strategy="canary",
                replication_strategy=policy,
                error_rate=0.25,
            ),
            seed=3,
        )
        platform.submit_job(JobRequest(workload=WORKLOAD, num_functions=100))
        platform.run()
        summary = platform.summary()
        print(
            f"{policy:12s} {summary.makespan_s:8.1f}s "
            f"${summary.cost_replica:9.4f} ${summary.cost_total:8.4f}"
        )
    print()


def drill_cost_breakdown() -> None:
    print("=== 3. bill breakdown, Canary vs active-standby (15% errors) ===")
    for strategy in ("canary", "active-standby"):
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=16, strategy=strategy, error_rate=0.15),
            seed=3,
        )
        platform.submit_job(JobRequest(workload=WORKLOAD, num_functions=100))
        platform.run()
        summary = platform.summary()
        print(
            f"{strategy:15s} functions=${summary.cost_function:.4f} "
            f"replicas=${summary.cost_replica:.4f} "
            f"standbys=${summary.cost_standby:.4f} "
            f"total=${summary.cost_total:.4f}"
        )


def main() -> None:
    drill_node_failure()
    drill_replication_strategies()
    drill_cost_breakdown()


if __name__ == "__main__":
    main()
