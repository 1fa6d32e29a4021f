"""Exponential backoff with deterministic jitter.

Used by the graceful-degradation paths: invocation placement retries while
the queue is starved, and restore reads against a browned-out storage tier.
``delay`` is a pure function of the attempt index and a uniform draw handed
in by the caller (from a named RNG stream), so every backoff schedule is a
pure function of the experiment seed.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Delay before the first retry.
BASE_S = 0.2
#: Multiplier applied per attempt.
FACTOR = 2.0
#: Cap on the un-jittered delay.
MAX_S = 5.0
#: Jitter fraction; the jittered delay lands in
#: ``[delay, delay * (1 + JITTER))`` for a uniform draw ``u``.
JITTER = 0.5
#: Retries before the caller degrades (falls back to an older checkpoint,
#: restarts the function from its start, gives up re-draining).  Callers
#: read it at call time, so a test can patch the module attribute.
MAX_ATTEMPTS = 6


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff: ``min(base * factor^n, max) * (1 + j*u)``.

    A scenario with ``backoff=BackoffPolicy()`` turns backoff on; the
    schedule's constants are the module-level ``UPPER_CASE`` values above.
    """

    def delay(self, attempt_index: int, u: float = 0.0) -> float:
        """Wait before retry *attempt_index* (0-based), jittered by *u*.

        ``u`` must come from a named RNG stream (or be 0 for the
        deterministic un-jittered schedule).
        """
        if attempt_index < 0:
            raise ValueError("attempt_index must be non-negative")
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must be within [0, 1]")
        base = min(BASE_S * FACTOR**attempt_index, MAX_S)
        return base * (1.0 + JITTER * u)
