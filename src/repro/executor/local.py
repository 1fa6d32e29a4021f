"""The local executor: real functions, real kills, real recovery.

``LocalExecutor.run_function`` drives one stateful function through as many
attempts as it takes, applying either the retry semantics (take no
checkpoints, restart from scratch) or the Canary semantics (keep
checkpoints; the next attempt restores and resumes).  ``run_job`` fans a
batch of functions across a thread pool — functions are independent, like
FaaS invocations.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.checkpoint.module import CheckpointingModule
from repro.common.errors import ReproError
from repro.core.ids import IdGenerator
from repro.executor.context import CheckpointContext, FunctionKilled
from repro.storage.kvstore import KeyValueStore
from repro.storage.router import CheckpointStorageRouter
from repro.storage.tiers import TierRegistry
from repro.trace.tracer import NULL_TRACER, NullTracer

#: A stateful function: receives the checkpoint context, returns its result.
StatefulFunction = Callable[[CheckpointContext], Any]

#: Safety bound on one function's recovery loop.
MAX_ATTEMPTS = 50


class FaultPlan:
    """Which (function, state) boundaries to kill, each at most once.

    Kills fire-or-expire: a kill scheduled at boundary *s* fires at the
    first consulted boundary with index >= *s*.  Exact matching used to
    leave kills stuck forever when a restore (or a guard-sparse function)
    skipped past the scheduled boundary — the chaos test then reported a
    clean run while most of its planned kills never happened.

    Thread-safe: attempts across the pool consult it concurrently.
    """

    def __init__(self, kills: Optional[dict[str, list[int]]] = None) -> None:
        self._pending: dict[str, deque[int]] = {
            fid: deque(sorted(states))
            for fid, states in (kills or {}).items()
        }
        self._lock = threading.Lock()
        self.kills_fired = 0

    def should_kill(self, function_id: str, state_index: int) -> bool:
        with self._lock:
            states = self._pending.get(function_id)
            if states and states[0] <= state_index:
                states.popleft()
                self.kills_fired += 1
                return True
            return False

    def pending_kills(self) -> dict[str, tuple[int, ...]]:
        """Kills that have not fired yet (empty after a full chaos run)."""
        with self._lock:
            return {
                fid: tuple(states)
                for fid, states in self._pending.items()
                if states
            }


class JobExecutionError(ReproError):
    """One or more functions of a job failed.

    Carries the full picture so a partial failure is not a total loss:
    ``results`` holds every function that completed, ``failures`` maps each
    failing function id to the exception it raised.
    """

    def __init__(
        self,
        failures: dict[str, BaseException],
        results: dict[str, "FunctionResult"],
    ) -> None:
        names = ", ".join(sorted(failures))
        super().__init__(
            f"{len(failures)} of {len(failures) + len(results)} "
            f"functions failed: {names}"
        )
        self.failures = failures
        self.results = results


@dataclass
class FunctionResult:
    """Outcome of one function's (possibly multi-attempt) execution."""

    function_id: str
    value: Any
    attempts: int
    kills: int
    restored_states: list[Optional[int]] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def recovered_via_checkpoint(self) -> bool:
        return any(s is not None for s in self.restored_states)


class LocalExecutor:
    """Runs stateful functions with fault injection and recovery.

    Checkpoints go through one :class:`CheckpointingModule`, built as the
    simulated platform builds its own, behind one lock.

    Args:
        strategy: ``"canary"`` (checkpoint restore) or ``"retry"``
            (restart from scratch).
        fault_plan: Kill schedule; default none.
        max_workers: Thread-pool width for ``run_job``.
        tracer: Span tracer; pass :func:`repro.trace.wallclock_tracer` to
            record real invoke/exec spans (thread-safe).  Default: off.
    """

    def __init__(
        self,
        *,
        strategy: str = "canary",
        fault_plan: Optional[FaultPlan] = None,
        max_workers: int = 4,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        if strategy not in ("canary", "retry"):
            raise ValueError(
                f"strategy must be 'canary' or 'retry', got {strategy!r}"
            )
        self.strategy = strategy
        self.fault_plan = fault_plan or FaultPlan()
        self.checkpointer = CheckpointingModule(
            CheckpointStorageRouter(KeyValueStore(), TierRegistry()),
            IdGenerator(),
        )
        self._lock = threading.Lock()
        self.max_workers = max_workers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.set_clock(time.perf_counter)

    # ------------------------------------------------------------------
    def run_function(
        self, function_id: str, fn: StatefulFunction
    ) -> FunctionResult:
        """Run *fn* to completion, recovering from injected kills."""
        tracer = self.tracer
        start = time.perf_counter()
        attempts = 0
        kills = 0
        restored_states: list[Optional[int]] = []
        invoke_span = tracer.begin(
            "invoke",
            function_id,
            function=function_id,
            strategy=self.strategy,
            thread=threading.current_thread().name,
        )
        while True:
            attempts += 1
            if attempts > MAX_ATTEMPTS:
                tracer.finish(
                    invoke_span, outcome="exhausted",
                    attempts=attempts - 1, kills=kills,
                )
                raise RuntimeError(
                    f"function {function_id} exceeded "
                    f"{MAX_ATTEMPTS} attempts"
                )
            ctx = CheckpointContext(
                function_id,
                self.checkpointer,
                self._lock,
                kill_hook=self.fault_plan.should_kill,
                # Retry semantics: nothing survives the container.
                checkpoints_enabled=self.strategy == "canary",
            )
            exec_span = tracer.begin(
                "exec",
                f"exec:{function_id}:{attempts}",
                parent=invoke_span,
                function=function_id,
                attempt=attempts,
            )
            try:
                value = fn(ctx)
            except FunctionKilled as exc:
                kills += 1
                restored_states.append(ctx.restored_from)
                tracer.finish(
                    exec_span, outcome="killed",
                    state=exc.state_index,
                    restored_from=ctx.restored_from,
                )
                continue
            except BaseException:
                tracer.finish(exec_span, outcome="error")
                tracer.finish(
                    invoke_span, outcome="error",
                    attempts=attempts, kills=kills,
                )
                raise
            restored_states.append(ctx.restored_from)
            tracer.finish(
                exec_span, outcome="completed",
                restored_from=ctx.restored_from,
            )
            with self._lock:  # function done; free checkpoints
                self.checkpointer.drop_function(function_id)
            tracer.finish(
                invoke_span, outcome="completed",
                attempts=attempts, kills=kills,
            )
            return FunctionResult(
                function_id=function_id,
                value=value,
                attempts=attempts,
                kills=kills,
                restored_states=restored_states,
                wall_time_s=time.perf_counter() - start,
            )

    def run_job(
        self, functions: dict[str, StatefulFunction]
    ) -> dict[str, FunctionResult]:
        """Run independent functions across a thread pool.

        Functions are independent, so one failure must not discard the
        others' work: every future is drained, completed results are kept,
        and a single :class:`JobExecutionError` reports the failures while
        carrying the surviving results.
        """
        if not functions:
            return {}
        results: dict[str, FunctionResult] = {}
        failures: dict[str, BaseException] = {}
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            futures = {
                fid: pool.submit(self.run_function, fid, fn)
                for fid, fn in functions.items()
            }
            for fid, future in futures.items():
                try:
                    results[fid] = future.result()
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures[fid] = exc
        if failures:
            raise JobExecutionError(failures, results)
        return results
