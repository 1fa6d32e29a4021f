"""Checkpoint cadence and retention policies.

Two knobs from the paper:

* **cadence** — implicit checkpointing records every registered state;
  explicit checkpointing lets the application checkpoint every k-th state
  ("reducing the checkpoint size and the associated overhead while
  increasing the programming complexity", §IV-C-4-b).
* **retention** — keep the latest *n* checkpoints in the store; the initial
  value of n is 3 and is "dynamically adjusted throughout the execution
  based on the application data to be checkpointed and the frequency of
  states produced" (§IV-C-4-b).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetentionPolicy:
    """Latest-n retention with the paper's dynamic adjustment.

    Attributes:
        initial_n: Starting retention depth (paper: 3).
        min_n / max_n: Clamp bounds for the dynamic adjustment.
        dynamic: When False, retention stays at ``initial_n``.
    """

    initial_n: int = 3
    min_n: int = 2
    max_n: int = 8
    dynamic: bool = True

    def __post_init__(self) -> None:
        if not (1 <= self.min_n <= self.initial_n <= self.max_n):
            raise ValueError(
                f"need 1 <= min_n <= initial_n <= max_n, got "
                f"{self.min_n}/{self.initial_n}/{self.max_n}"
            )

    def target_n(
        self,
        *,
        checkpoint_size_bytes: float,
        state_period_s: float,
        db_limit_bytes: float,
    ) -> int:
        """Retention depth for a function's (size, frequency) profile.

        Heuristic implementing the paper's description: large payloads that
        spill out of the KV store keep fewer generations (memory pressure);
        small high-frequency states keep more (cheap, and deeper history
        shortens the worst-case redo after cascading failures).
        """
        if not self.dynamic:
            return self.initial_n
        n = self.initial_n
        if checkpoint_size_bytes > db_limit_bytes:
            n -= 1
        if state_period_s < 1.0 and checkpoint_size_bytes <= db_limit_bytes / 8:
            n += 2
        elif state_period_s > 20.0:
            n -= 1
        return max(self.min_n, min(self.max_n, n))


@dataclass(frozen=True)
class CheckpointPolicy:
    """Full checkpointing configuration for a job.

    Whether a strategy checkpoints at all is
    ``RecoveryStrategy.checkpoints_enabled``; the cadence is the job's
    ``checkpoint_interval`` (or the S40 adaptive controller's override).

    Attributes:
        retention: Latest-n retention policy.
    """

    retention: RetentionPolicy = RetentionPolicy()

    def should_checkpoint(self, state_index: int, effective_interval: int) -> bool:
        """Checkpoint after state *state_index* (0-based)?"""
        return (state_index + 1) % max(1, effective_interval) == 0
