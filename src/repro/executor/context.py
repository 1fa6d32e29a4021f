"""The checkpoint API handed to user functions.

Mirrors the paper's "minimum modification to the function code" contract
(§IV-C-4-a): the application calls ``ctx.save(state_index, payload)`` after
each state and ``ctx.restore()`` once at startup to learn where to resume.
State boundaries are also the kill points the fault plan can target.
Checkpoints go through the simulator's :class:`CheckpointingModule`
(Algorithm 1: cadence, spill routing, latest-n) with the pickled payload.
"""

from __future__ import annotations

import pickle
import threading
import time
from typing import Any, Callable, Optional

from repro.checkpoint.module import CheckpointingModule
from repro.common.errors import ReproError

#: The job id of every checkpoint record: the executor runs bare functions.
JOB_ID = "local"


class FunctionKilled(ReproError):
    """The container hosting the function was killed (fault injection)."""

    def __init__(self, function_id: str, state_index: int) -> None:
        super().__init__(
            f"function {function_id} killed at state {state_index}"
        )
        self.function_id = function_id
        self.state_index = state_index


class CheckpointContext:
    """Per-attempt handle exposing save/restore and kill points.

    Args:
        function_id: Owning function.
        checkpointer: Checkpointing Module shared across attempts.
        lock: Guards *checkpointer*, which attempts on other threads share;
            payloads are pickled outside it.
        kill_hook: Called at every state boundary with the state index;
            returning True kills the function there.
        checkpoints_enabled: Canary semantics save real checkpoints; retry
            semantics run with saves disabled (the payload is dropped).
    """

    def __init__(
        self,
        function_id: str,
        checkpointer: CheckpointingModule,
        lock: threading.Lock,
        *,
        kill_hook: Optional[Callable[[str, int], bool]] = None,
        checkpoints_enabled: bool = True,
    ) -> None:
        self.function_id = function_id
        self._checkpointer = checkpointer
        self._lock = lock
        self._kill_hook = kill_hook
        self.checkpoints_enabled = checkpoints_enabled
        self.restored_from: Optional[int] = None

    # ------------------------------------------------------------------
    # User-facing API
    # ------------------------------------------------------------------
    def restore(self) -> Optional[tuple[int, Any]]:
        """Latest surviving checkpoint, or None to start from scratch."""
        with self._lock:
            record = self._checkpointer.latest(self.function_id)
            if record is None:
                return None
            blob = self._checkpointer.router.read(record.ref)
        self.restored_from = record.state_index
        return record.state_index, pickle.loads(blob)

    def save(self, state_index: int, payload: Any) -> None:
        """Checkpoint a completed state (also a kill point).

        The kill check runs *before* the save: a function killed "right
        before a checkpoint is taken" loses the whole state — the paper's
        worst case for Canary's overhead.  The module's cadence decides
        whether the state is checkpointed; a cadence set between that
        check and the record applies from the next state on.
        """
        self.guard(state_index)
        if not self.checkpoints_enabled:
            return
        checkpointer = self._checkpointer
        with self._lock:
            if not checkpointer.should_checkpoint(self.function_id, state_index):
                return
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        # No state period is passed: the module's 1 s default makes the
        # latest-n depth follow the payload size alone, not thread timing.
        with self._lock:
            checkpointer.record_state(
                job_id=JOB_ID,
                function_id=self.function_id,
                state_index=state_index,
                size_bytes=len(blob),
                serialize_overhead_s=0.0,
                now=time.perf_counter(),
                payload=blob,
            )

    def guard(self, state_index: int) -> None:
        """Explicit kill point for code with long gaps between saves."""
        if self._kill_hook is not None and self._kill_hook(
            self.function_id, state_index
        ):
            raise FunctionKilled(self.function_id, state_index)
