"""Shared fixtures: small workloads and platform factories for fast tests."""

from __future__ import annotations

import pytest

from repro.checkpoint.module import CheckpointingModule
from repro.common.types import RuntimeKind
from repro.common.units import KiB, mb
from repro.core.canary import CanaryPlatform
from repro.core.ids import IdGenerator
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.storage.kvstore import KeyValueStore
from repro.storage.router import CheckpointStorageRouter
from repro.storage.tiers import TierRegistry
from repro.workloads.profiles import WorkloadProfile

#: A tiny deterministic workload: 4 states x 2 s, no jitter, small ckpts.
TINY = WorkloadProfile(
    name="tiny",
    runtime=RuntimeKind.PYTHON,
    n_states=4,
    state_duration_s=2.0,
    state_jitter=0.0,
    checkpoint_size_bytes=64 * KiB,
    serialize_overhead_s=0.01,
    finish_s=0.1,
    memory_bytes=mb(256),
)

#: Same structure but with checkpoints too large for the KV store.
TINY_BIG_CKPT = WorkloadProfile(
    name="tiny-big-ckpt",
    runtime=RuntimeKind.PYTHON,
    n_states=4,
    state_duration_s=2.0,
    state_jitter=0.0,
    checkpoint_size_bytes=mb(200),
    serialize_overhead_s=0.05,
    finish_s=0.1,
    memory_bytes=mb(256),
)


@pytest.fixture
def tiny_workload() -> WorkloadProfile:
    return TINY


@pytest.fixture
def tiny_big_ckpt_workload() -> WorkloadProfile:
    return TINY_BIG_CKPT


def build_platform(*, seed: int = 0, **kwargs) -> CanaryPlatform:
    """Platform with small defaults suitable for unit tests; *kwargs* are
    :class:`ScenarioConfig` fields."""
    kwargs.setdefault("num_nodes", 4)
    return CanaryPlatform(ScenarioConfig(**kwargs), seed=seed)


def build_checkpointer(**kv_kwargs) -> CheckpointingModule:
    """A Checkpointing Module built as the local executor builds its own;
    *kv_kwargs* go to its :class:`KeyValueStore` (``db_limit_bytes``)."""
    return CheckpointingModule(
        CheckpointStorageRouter(KeyValueStore(**kv_kwargs), TierRegistry()),
        IdGenerator(),
    )


def run_tiny_job(
    *,
    strategy: str = "canary",
    error_rate: float = 0.0,
    num_functions: int = 10,
    workload: WorkloadProfile = TINY,
    seed: int = 0,
    **platform_kwargs,
):
    """Run one small job to completion; return (platform, job)."""
    platform = build_platform(
        seed=seed, strategy=strategy, error_rate=error_rate, **platform_kwargs
    )
    job = platform.submit_job(
        JobRequest(workload=workload, num_functions=num_functions)
    )
    platform.run()
    return platform, job


@pytest.fixture
def platform_factory():
    return build_platform


@pytest.fixture
def tiny_job_runner():
    return run_tiny_job
