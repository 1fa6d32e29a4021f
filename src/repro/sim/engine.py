"""The discrete-event simulator.

The simulator advances a virtual clock from event to event.  Components
schedule callbacks with :meth:`Simulator.call_at` / :meth:`Simulator.call_in`
and may cancel them through the returned :class:`EventHandle`.  The run loop
is single-threaded and deterministic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


#: Cancellable handle for a scheduled callback.  The :class:`Event` is its
#: own handle (``.cancel()`` / ``.active`` / ``.time`` / ``.label``) — the
#: former wrapper class allocated one extra object per scheduled event,
#: which was the single largest cost on the scheduling hot path.
EventHandle = Event


class Simulator:
    """Virtual-time event loop with deterministic named RNG streams.

    Args:
        seed: Root seed; every named stream handed out by :attr:`rng` is
            derived from it, so one seed pins the full trace.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        self.rng = RngRegistry(seed)
        self.seed = seed
        self._event_count = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._event_count

    @property
    def pending(self) -> int:
        """Number of live (not cancelled, not fired) events."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        label: str = "",
    ) -> EventHandle:
        """Schedule *callback* at absolute virtual *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {label!r} at t={time} "
                f"(current time is {self._now})"
            )
        return self._queue.push(time, callback, label=label)

    def call_in(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        label: str = "",
    ) -> EventHandle:
        """Schedule *callback* after *delay* seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        # Push directly (delay >= 0 implies the time is not in the past);
        # the extra hop through call_at was measurable at engine rates.
        return self._queue.push(self._now + delay, callback, label=label)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        try:
            event = self._queue.pop()
        except IndexError:
            return False
        self._now = event.time
        callback = event.callback
        event.callback = None
        self._event_count += 1
        if callback is not None:
            callback()
        return True

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, *until* is reached, or *max_events*.

        Returns the virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        fired = 0
        queue = self._queue
        # Fully inlined drain: this loop dominates every simulated run.
        # The heap list's identity is stable (compaction rebuilds it in
        # place), so it is bound to a local once, ``heappop`` is a local,
        # and the per-event cost is one heap pop plus the bookkeeping
        # stores callbacks can observe (``now``, ``events_processed``) —
        # no per-event method dispatch at all.
        heap = queue._heap
        heappop = heapq.heappop
        has_until = until is not None
        has_cap = max_events is not None
        try:
            while heap:
                key, event = heap[0]
                time = key[0]
                if has_until and time > until:
                    self._now = until
                    break
                if has_cap and fired >= max_events:
                    break
                heappop(heap)
                if event.cancelled:
                    queue._cancelled -= 1
                    continue
                event.in_heap = False
                queue._live -= 1
                if heap and heap[0][1].cancelled:
                    queue._prune_top()
                self._now = time
                callback = event.callback
                event.callback = None
                self._event_count += 1
                if callback is not None:
                    callback()
                fired += 1
        finally:
            self._running = False
        return self._now
