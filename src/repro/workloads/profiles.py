"""Timing/size profiles of the evaluated workloads.

A function execution is *phase-structured* per the problem formulation
(§III, Eq. 1–2): launch → init → S states (each followed by a checkpoint
opportunity) → finish.  A profile pins down S, the per-state duration, the
checkpoint payload size, and the serialization overhead — everything the
simulator needs to charge ``st_ij``, ``ckp_i`` and ``t_res``.

Calibration notes (see EXPERIMENTS.md for the resulting paper-vs-measured
comparison):

* **dl-training** — the paper trains ResNet50 for 50 epochs across 100
  function invocations; each function owns a slice of 5 epochs, checkpointing
  weights+biases (~98 MB for ResNet50) after every epoch.
* **web-service** — 50 requests × 5 queries against PostgreSQL; a checkpoint
  (queries + responses, small) after each request.
* **spark-mining** — diversity index over US census data; a checkpoint after
  each location partition's output is aggregated.
* **compression** — SeBS 311: each function compresses several ~1 GB files,
  checkpointing after each file (the compressed output, a few hundred MB).
* **graph-bfs** — SeBS 501: BFS over a 50 M-vertex binary tree; the paper
  checkpoints every 1 M vertices; the simulator profile coarsens one state to
  5 M vertices (10 states/function) — the real executor implementation keeps
  the 1 M cadence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.types import RuntimeKind
from repro.common.units import KiB, mb


@dataclass(frozen=True)
class WorkloadProfile:
    """Phase structure of one workload's functions.

    Attributes:
        name: Workload identifier.
        runtime: Runtime image kind the paper used for this workload.
        n_states: Number of states S per function (checkpoint opportunities).
        state_duration_s: Mean duration ``st`` of one state on a
            speed-factor-1.0 node.
        state_jitter: Relative std-dev of per-state duration (normal,
            floored at 5% of the mean); per (function, state) draws are
            deterministic so re-executing a state after a failure costs the
            same as the first run.
        checkpoint_size_bytes: Payload size of one checkpoint.
        serialize_overhead_s: CPU cost of producing the checkpoint payload
            (on top of the storage write time).
        finish_s: ``fin_f`` — work after the last state update.
        memory_bytes: Container memory allocation for this workload.
        input_fetch_s: One-time input staging cost after init.
    """

    name: str
    runtime: RuntimeKind
    n_states: int
    state_duration_s: float
    state_jitter: float
    checkpoint_size_bytes: float
    serialize_overhead_s: float
    finish_s: float
    memory_bytes: float
    input_fetch_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_states <= 0:
            raise ValueError("n_states must be positive")
        if self.state_duration_s <= 0:
            raise ValueError("state_duration_s must be positive")
        if not 0 <= self.state_jitter < 1:
            raise ValueError("state_jitter must be in [0, 1)")
        if self.checkpoint_size_bytes < 0:
            raise ValueError("checkpoint_size_bytes must be non-negative")

    @property
    def mean_exec_s(self) -> float:
        """Expected pure state-execution time (no checkpoints, no failures)."""
        return self.n_states * self.state_duration_s + self.finish_s


ALL_WORKLOADS: tuple[WorkloadProfile, ...] = (
    WorkloadProfile(
        name="dl-training",
        runtime=RuntimeKind.PYTHON,
        n_states=5,                      # 5 epochs per function
        state_duration_s=30.0,           # one ResNet50 epoch slice
        state_jitter=0.08,
        checkpoint_size_bytes=mb(98),    # ResNet50 weights + biases
        serialize_overhead_s=0.40,
        finish_s=1.0,
        memory_bytes=mb(2048),
        input_fetch_s=2.0,               # stage MNIST shard
    ),
    WorkloadProfile(
        name="web-service",
        runtime=RuntimeKind.NODEJS,
        n_states=50,                     # 50 requests, 5 queries each
        state_duration_s=0.30,
        state_jitter=0.15,
        checkpoint_size_bytes=64 * KiB,  # queries + responses
        serialize_overhead_s=0.005,
        finish_s=0.1,
        memory_bytes=mb(256),
    ),
    WorkloadProfile(
        name="spark-mining",
        runtime=RuntimeKind.JAVA,
        n_states=8,                      # location partitions
        state_duration_s=4.0,
        state_jitter=0.10,
        checkpoint_size_bytes=mb(5),     # aggregated diversity indices
        serialize_overhead_s=0.05,
        finish_s=0.5,
        memory_bytes=mb(1024),
        input_fetch_s=1.5,               # load census slice
    ),
    WorkloadProfile(
        name="compression",
        runtime=RuntimeKind.PYTHON,
        n_states=5,                      # ~1 GB input files per function
        state_duration_s=12.0,
        state_jitter=0.10,
        checkpoint_size_bytes=mb(300),   # compressed output of one file
        serialize_overhead_s=0.30,
        finish_s=0.3,
        memory_bytes=mb(1024),
        input_fetch_s=1.0,
    ),
    WorkloadProfile(
        name="graph-bfs",
        runtime=RuntimeKind.PYTHON,
        n_states=10,                     # 5 M vertices per state (50 M total)
        state_duration_s=2.5,
        state_jitter=0.12,
        checkpoint_size_bytes=mb(20),    # frontier + visited summary
        serialize_overhead_s=0.05,
        finish_s=0.2,
        memory_bytes=mb(512),
    ),
)

#: Short single-runtime microbenchmarks used for the per-runtime view of
#: Fig. 4 (100 invocations of python/nodejs/java runtimes).
MICRO_WORKLOADS: tuple[WorkloadProfile, ...] = (
    WorkloadProfile(
        name="micro-python",
        runtime=RuntimeKind.PYTHON,
        n_states=6,
        state_duration_s=2.0,
        state_jitter=0.10,
        checkpoint_size_bytes=mb(1),
        serialize_overhead_s=0.01,
        finish_s=0.1,
        memory_bytes=mb(256),
    ),
    WorkloadProfile(
        name="micro-nodejs",
        runtime=RuntimeKind.NODEJS,
        n_states=6,
        state_duration_s=2.0,
        state_jitter=0.10,
        checkpoint_size_bytes=mb(1),
        serialize_overhead_s=0.01,
        finish_s=0.1,
        memory_bytes=mb(256),
    ),
    WorkloadProfile(
        name="micro-java",
        runtime=RuntimeKind.JAVA,
        n_states=6,
        state_duration_s=2.0,
        state_jitter=0.10,
        checkpoint_size_bytes=mb(1),
        serialize_overhead_s=0.01,
        finish_s=0.1,
        memory_bytes=mb(384),
    ),
)

WORKLOADS_BY_NAME: dict[str, WorkloadProfile] = {
    w.name: w for w in ALL_WORKLOADS + MICRO_WORKLOADS
}


def get_workload(name: str) -> WorkloadProfile:
    """Look up a workload profile by name (raises with suggestions)."""
    try:
        return WORKLOADS_BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS_BY_NAME)}"
        ) from None
