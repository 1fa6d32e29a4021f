#!/usr/bin/env python
"""A stateful multi-function FaaS job on the real executor.

Mirrors the paper's workload mix: compression functions, web-service
request loops, census data mining, and a BFS traversal run concurrently
on a thread pool, several of them killed mid-flight, all recovered via
Canary checkpoints — and every result verified against a failure-free run.

Run:
    python examples/stateful_pipeline.py
"""

import dataclasses

from repro.executor import FaultPlan, LocalExecutor
from repro.workloads.compression import make_compression
from repro.workloads.graph_bfs import make_bfs
from repro.workloads.spark_mining import make_diversity_job
from repro.workloads.webservice import make_web_service


def build_job():
    return {
        "compress-0": make_compression(num_files=6, seed=1),
        "compress-1": make_compression(num_files=6, seed=2),
        "webserve-0": make_web_service(requests=15, seed=3),
        "mine-0": make_diversity_job(num_counties=96, partitions=6, seed=4),
        "bfs-0": make_bfs(num_vertices=8192, checkpoint_every=1024),
    }


def main() -> None:
    # Reference: failure-free run.
    clean = LocalExecutor(strategy="canary").run_job(build_job())

    # Faulty run: kill four of the five functions at various states.
    plan = FaultPlan(
        {
            "compress-0": [3],
            "webserve-0": [5, 11],
            "mine-0": [2],
            "bfs-0": [4],
        }
    )
    executor = LocalExecutor(strategy="canary", fault_plan=plan, max_workers=5)
    faulty = executor.run_job(build_job())

    def semantic(value):
        # work_units counts the final attempt's computation — it is the
        # diagnostic that *should* differ between runs; drop it before
        # comparing results.
        return dataclasses.replace(value, work_units=0)

    print(f"{'function':12s} {'attempts':>8s} {'kills':>6s} "
          f"{'resumed?':>9s} {'result ok':>10s}")
    for fid in sorted(clean):
        c, f = clean[fid], faulty[fid]
        ok = semantic(c.value) == semantic(f.value)
        print(
            f"{fid:12s} {f.attempts:8d} {f.kills:6d} "
            f"{'yes' if f.recovered_via_checkpoint else 'no':>9s} "
            f"{'✔' if ok else '✘':>10s}"
        )
        assert ok, f"{fid}: recovery changed the result!"

    restores = sum(
        state is not None
        for result in faulty.values()
        for state in result.restored_states
    )
    print(f"\nkills fired: {plan.kills_fired}; "
          f"checkpoints saved: {executor.checkpointer.checkpoints_taken}; "
          f"restores served: {restores}")
    print("all results identical to the failure-free run ✔")


if __name__ == "__main__":
    main()
