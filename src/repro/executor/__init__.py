"""Local real-execution backend.

Runs *actual Python stateful functions* through the Canary checkpoint API:
user code registers states and saves real (pickled) payloads; a fault plan
kills functions at chosen state boundaries; the executor recovers them with
either the retry semantics (from scratch, no checkpoints) or the Canary
semantics (restore the latest checkpoint and resume).  The payloads go
through the simulator's own Checkpointing Module (Algorithm 1: cadence,
spill routing, latest-n retention, checkpoint ids), so the real workloads
exercise the one implementation of those rules.

This is the backend behind the examples and the end-to-end integration
tests — it demonstrates that the recovery logic preserves results on real
computations (zlib compression, numpy training loops, BFS), not just on
simulated timings.
"""

from repro.executor.context import CheckpointContext, FunctionKilled
from repro.executor.local import FaultPlan, FunctionResult, LocalExecutor

__all__ = [
    "CheckpointContext",
    "FaultPlan",
    "FunctionKilled",
    "FunctionResult",
    "LocalExecutor",
]
