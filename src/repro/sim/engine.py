"""The discrete-event simulator.

The simulator advances a virtual clock from event to event.  Components
schedule callbacks with :meth:`Simulator.call_at` / :meth:`Simulator.call_in`
and may cancel them through the returned :class:`Event`.  The run loop is
single-threaded and deterministic.

Events fire in ``(time, seq)`` order: the sequence number makes the order
total, so two events scheduled for the same instant fire in scheduling
order, independent of heap internals.  The heap holds ``(time, seq, event)``
entries and belongs to the :class:`Simulator` alone.

Cancellation is lazy: a cancelled event stays in the heap until it
surfaces, and the drain loops skip it.  One fixed rule bounds the garbage:
when a cancel leaves dead entries outnumbering live ones, the heap is
rebuilt in place without them.  Each rebuild costs at most twice the dead
entries it drops, each of which one cancel made, so cancelling stays
amortised O(1).  The rebuild keeps the heap list's identity, so the drain
loop may bind it to a local once.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.sim.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback, and its own cancellable handle.

    Slotted because the simulator allocates one per scheduled callback.

    Attributes:
        time: Absolute virtual time at which the event fires.
        seq: Tie-breaker among events at the same time.
        callback: Zero-argument callable; None once fired or cancelled.
        cancelled: True once :meth:`cancel` took effect.
        label: Optional human-readable tag used in traces and error messages.
        sim: The simulator whose heap holds the event.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "label", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        label: str,
        sim: "Simulator",
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.label = label
        self.sim = sim

    @property
    def active(self) -> bool:
        """True while the callback has neither fired nor been cancelled."""
        return self.callback is not None

    def cancel(self) -> None:
        """Cancel the scheduled callback (no-op once fired or cancelled)."""
        if self.callback is None:
            return
        self.callback = None  # break reference cycles early
        self.cancelled = True
        sim = self.sim
        sim._live -= 1
        heap = sim._heap
        if len(heap) > 2 * sim._live:  # dead entries outnumber live ones
            heap[:] = [entry for entry in heap if entry[2].callback is not None]
            heapq.heapify(heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return (f"Event(t={self.time}, seq={self.seq}, {state}, "
                f"label={self.label!r})")


#: The type of the handle :meth:`Simulator.call_at` returns.
EventHandle = Event


class Simulator:
    """Virtual-time event loop with deterministic named RNG streams.

    Args:
        seed: Root seed; every named stream handed out by :attr:`rng` is
            derived from it, so one seed pins the full trace.
    """

    def __init__(self, seed: int = 0) -> None:
        #: Current virtual time in seconds.  Only the run loop, :meth:`step`
        #: and ``run(until=...)`` write it.
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        #: Heap entries whose event is neither fired nor cancelled.
        self._live = 0
        #: Events ever scheduled, fired, and the most heap entries held.
        self.pushes = 0
        self.events_processed = 0
        self.peak_heap_size = 0
        self._running = False
        self.rng = RngRegistry(seed)
        self.seed = seed

    @property
    def pending(self) -> int:
        """Number of live (not cancelled, not fired) events."""
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        label: str = "",
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule *callback* at absolute virtual *time*, after every event
        already scheduled for that time, or at the place *seq* (a cancelled
        event's, at a later time) held among them."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at t={time} "
                f"(current time is {self.now})"
            )
        return self._push(time, callback, label, seq)

    def call_in(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        label: str = "",
    ) -> Event:
        """Schedule *callback* after *delay* seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        return self._push(self.now + delay, callback, label, None)

    def _push(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str,
        seq: Optional[int],
    ) -> Event:
        if seq is None:
            seq = next(self._seq)
        event = Event(time, seq, callback, label, self)
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        self._live += 1
        self.pushes += 1
        if len(heap) > self.peak_heap_size:
            self.peak_heap_size = len(heap)
        return event

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event.  Returns False when none is pending."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            callback = event.callback
            if callback is None:
                continue
            self._live -= 1
            self.now = time
            event.callback = None
            self.events_processed += 1
            callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until no event is pending, *until* is reached, or
        *max_events* have fired.

        Returns the virtual time at which the run stopped: *until* if a
        live event lies beyond it, else the time of the last event fired.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        fired = 0
        # This loop dominates every simulated run: the heap and ``heappop``
        # are locals, and the per-event cost is one heap pop plus the
        # stores callbacks can observe (``now``, ``events_processed``).
        heap = self._heap
        heappop = heapq.heappop
        has_until = until is not None
        has_cap = max_events is not None
        try:
            while heap:
                time, _, event = heap[0]
                callback = event.callback
                if callback is None:  # cancelled: drop it before the tests
                    heappop(heap)
                    continue
                if has_until and time > until:
                    self.now = until
                    break
                if has_cap and fired >= max_events:
                    break
                heappop(heap)
                self._live -= 1
                self.now = time
                event.callback = None
                self.events_processed += 1
                callback()
                fired += 1
        finally:
            self._running = False
        return self.now
