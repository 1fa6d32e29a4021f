"""The checkpoint API handed to user functions.

Mirrors the paper's "minimum modification to the function code" contract
(§IV-C-4-a): the application calls ``ctx.save(state_index, payload)`` after
each state and ``ctx.restore()`` once at startup to learn where to resume.
State boundaries are also the kill points the fault plan can target.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.common.errors import ReproError
from repro.executor.store import RealCheckpointStore


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
        store: Backing checkpoint store (shared across attempts).
        kill_hook: Called at every state boundary with the state index;
            returning True kills the function there.
        checkpoints_enabled: Canary semantics save real checkpoints; retry
            semantics run with saves disabled (the payload is dropped).
    """

    def __init__(
        self,
        function_id: str,
        store: RealCheckpointStore,
        *,
        kill_hook: Optional[Callable[[str, int], bool]] = None,
        checkpoints_enabled: bool = True,
    ) -> None:
        self.function_id = function_id
        self._store = store
        self._kill_hook = kill_hook
        self.checkpoints_enabled = checkpoints_enabled
        self.saves = 0
        self.restored_from: Optional[int] = None

    # ------------------------------------------------------------------
    # User-facing API
    # ------------------------------------------------------------------
    def restore(self) -> Optional[tuple[int, Any]]:
        """Latest surviving checkpoint, or None to start from scratch."""
        result = self._store.restore(self.function_id)
        if result is not None:
            self.restored_from = result[0]
        return result

    def save(self, state_index: int, payload: Any) -> None:
        """Checkpoint a completed state (also a kill point).

        The kill check runs *before* the save: a function killed "right
        before a checkpoint is taken" loses the whole state — the paper's
        worst case for Canary's overhead.
        """
        self.guard(state_index)
        if self.checkpoints_enabled:
            self._store.save(self.function_id, state_index, payload)
            self.saves += 1

    def guard(self, state_index: int) -> None:
        """Explicit kill point for code with long gaps between saves."""
        if self._kill_hook is not None and self._kill_hook(
            self.function_id, state_index
        ):
            raise FunctionKilled(self.function_id, state_index)
