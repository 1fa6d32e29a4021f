"""Unique-ID generation for jobs, functions, checkpoints, and replicas.

The Core Module "generates a set of unique IDs for the submitted jobs,
functions, checkpoints, and replicas" (§IV-C-1).  IDs are deterministic
monotonic counters per namespace so simulation traces are reproducible and
greppable (``job-0003``, ``fn-0003-0041``, ``ckpt-0003-0041-0002``).
"""

from __future__ import annotations

import itertools


class IdGenerator:
    """Namespaced monotonic ID factory."""

    def __init__(self) -> None:
        self._counters: dict[str, itertools.count] = {}
        # Per-function counters with a cached "ckpt-<suffix>-" or
        # "att-<suffix>-" prefix: one lookup per id on the per-state path.
        self._checkpoints: dict[str, _Sequence] = {}
        self._attempts: dict[str, _Sequence] = {}

    def _next(self, namespace: str) -> int:
        counter = self._counters.get(namespace)
        if counter is None:
            counter = itertools.count()
            self._counters[namespace] = counter
        return next(counter)

    def job_id(self) -> str:
        return f"job-{self._next('job'):04d}"

    def function_id(self, job_id: str, index: int) -> str:
        return f"fn-{job_id.removeprefix('job-')}-{index:04d}"

    def checkpoint_id(self, function_id: str) -> str:
        seq = self._checkpoints.get(function_id)
        if seq is None:
            seq = self._checkpoints[function_id] = _Sequence("ckpt", function_id)
        n = seq.next
        seq.next = n + 1
        return f"{seq.prefix}{n:04d}"

    def skip_checkpoint_ids(self, function_id: str, count: int) -> None:
        """Advance the counter as *count* ``checkpoint_id`` calls would."""
        seq = self._checkpoints.get(function_id)
        if seq is None:
            seq = self._checkpoints[function_id] = _Sequence("ckpt", function_id)
        seq.next += count

    def replica_id(self) -> str:
        return f"rep-{self._next('replica'):05d}"

    def attempt_id(self, function_id: str) -> str:
        seq = self._attempts.get(function_id)
        if seq is None:
            seq = self._attempts[function_id] = _Sequence("att", function_id)
        n = seq.next
        seq.next = n + 1
        return f"{seq.prefix}{n:02d}"


class _Sequence:
    """One function's id counter and its cached prefix."""

    __slots__ = ("prefix", "next")

    def __init__(self, kind: str, function_id: str) -> None:
        self.prefix = f"{kind}-{function_id.removeprefix('fn-')}-"
        self.next = 0
