#!/usr/bin/env python
"""Quickstart: run one FaaS job under three recovery strategies.

Simulates 100 invocations of the graph-BFS workload on a 16-node cluster
with a 15 % failure rate and compares the ideal (failure-free), retry
(platform default), and Canary scenarios — the paper's §V-B setup in
30 lines.

Run:
    python examples/quickstart.py
"""

from repro import CanaryPlatform, JobRequest, ScenarioConfig, get_workload

ERROR_RATE = 0.15
WORKLOAD = get_workload("graph-bfs")


def run(strategy: str, error_rate: float):
    platform = CanaryPlatform(
        ScenarioConfig(num_nodes=16, strategy=strategy, error_rate=error_rate),
        seed=42,
    )
    platform.submit_job(JobRequest(workload=WORKLOAD, num_functions=100))
    platform.run()
    return platform.summary()


def main() -> None:
    print(f"workload={WORKLOAD.name}  invocations=100  "
          f"error_rate={ERROR_RATE:.0%}\n")
    header = (f"{'strategy':10s} {'makespan':>9s} {'recovery(mean)':>15s} "
              f"{'failures':>9s} {'cost':>9s}")
    print(header)
    print("-" * len(header))
    baseline = None
    for strategy in ("ideal", "retry", "canary"):
        summary = run(strategy, 0.0 if strategy == "ideal" else ERROR_RATE)
        print(
            f"{strategy:10s} {summary.makespan_s:8.1f}s "
            f"{summary.mean_recovery_s:14.2f}s {summary.failures:9d} "
            f"${summary.cost_total:8.4f}"
        )
        if strategy == "retry":
            baseline = summary
        elif strategy == "canary" and baseline is not None:
            cut = 100 * (1 - summary.mean_recovery_s / baseline.mean_recovery_s)
            print(f"\nCanary cuts mean recovery time by {cut:.0f}% vs retry "
                  f"(paper: 76-83%).")


if __name__ == "__main__":
    main()
