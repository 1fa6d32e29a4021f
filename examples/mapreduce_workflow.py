#!/usr/bin/env python
"""MapReduce two ways: simulated workflow triggers + real wordcount.

Part 1 simulates the paper's §I MapReduce workflow on the platform: the
reduce stage's job launches only when every mapper completed (trigger
semantics), and recovery keeps the trigger chain intact under a 25 %
error rate.

Part 2 runs a *real* wordcount through the local executor — mappers and a
reducer as stateful Python functions with checkpoints — kills three of
them mid-flight and verifies the counts anyway.

Run:
    python examples/mapreduce_workflow.py
"""

from repro import (
    CanaryPlatform,
    JobRequest,
    ScenarioConfig,
    WorkflowCoordinator,
    WorkflowRequest,
    WorkflowStage,
    get_workload,
)
from repro.executor import FaultPlan
from repro.workloads.mapreduce import (
    exact_wordcount,
    run_wordcount,
    synthesize_documents,
)


def simulated_workflow() -> None:
    print("=== simulated MapReduce workflow (25% error rate) ===")
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=8,
            strategy="canary",
            error_rate=0.25,
            refailure_rate=0.0,
        ),
        seed=5,
    )
    coordinator = WorkflowCoordinator(platform)
    run = coordinator.submit(
        WorkflowRequest(
            name="census-mapreduce",
            stages=(
                WorkflowStage(
                    "map",
                    JobRequest(
                        workload=get_workload("spark-mining"),
                        num_functions=32,
                    ),
                ),
                WorkflowStage(
                    "reduce",
                    JobRequest(
                        workload=get_workload("web-service"),
                        num_functions=4,
                    ),
                ),
            ),
        )
    )
    platform.run()
    durations = run.stage_durations()
    print(f"stages completed  : {', '.join(run.stage_names)}")
    for name, duration in durations.items():
        print(f"  {name:8s} {duration:8.1f}s")
    print(f"failures recovered: {len(platform.metrics.failures)} "
          f"(unrecovered: {len(platform.metrics.unrecovered_failures())})")
    map_job, reduce_job = run.jobs
    print(f"trigger honoured  : reduce submitted at "
          f"{reduce_job.submitted_at:.1f}s, map completed at "
          f"{map_job.completed_at:.1f}s\n")


def real_wordcount() -> None:
    print("=== real wordcount with kills (local executor) ===")
    docs = synthesize_documents(num_docs=40, words_per_doc=300, seed=9)
    plan = FaultPlan({"mapper-0": [1], "mapper-2": [0], "reducer-0": [2]})
    result = run_wordcount(num_mappers=4, documents=docs, fault_plan=plan)
    truth = exact_wordcount(docs)
    assert result.counts == truth, "recovery changed the counts!"
    top = sorted(truth.items(), key=lambda kv: -kv[1])[:3]
    print(f"kills injected    : {result.total_kills}")
    print(f"mapper attempts   : {result.mapper_attempts}")
    print(f"reducer attempts  : {result.reducer_attempts}")
    print("top words         : "
          + ", ".join(f"{w}={c}" for w, c in top))
    print("counts identical to the failure-free ground truth ✔")


def main() -> None:
    simulated_workflow()
    real_wordcount()


if __name__ == "__main__":
    main()
