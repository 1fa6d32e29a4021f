"""Event primitives for the discrete-event engine.

Events are ordered by (time, sequence).  The sequence number makes ordering
total and deterministic: two events scheduled for the same instant fire in
scheduling order, independent of heap internals.

Hot-path notes
--------------
``Event`` is a slotted plain class (no dataclass machinery, no ``__dict__``)
because the simulator allocates one per scheduled callback — millions per
sweep.  The heap sort key is computed once at construction and stored on the
event (:attr:`Event.key`) instead of being re-derived on every comparison or
rebuild.

Cancellation is lazy — a cancelled event stays in the heap until it
surfaces — but the queue now bounds the garbage: when cancelled entries
outnumber live ones (and the heap is big enough to matter) the queue
compacts itself, dropping every dead entry in one O(n) rebuild.  Workloads
that cancel heavily (timeouts, standby teardowns) previously accumulated
dead entries until they happened to be popped; compaction keeps heap size
proportional to the number of *live* events.  :meth:`EventQueue.compact` is
also public so callers can force a rebuild at a known point.

``peek_time`` is a pure read: the queue maintains the invariant that the
heap top is never a cancelled event (dead tops are pruned inside ``cancel``
and ``pop``), so peeking no longer mutates the heap as a side effect.

Drain loop
----------
:meth:`Simulator.run <repro.sim.engine.Simulator.run>` drains the queue
with its own inlined loop rather than calling :meth:`EventQueue.pop` per
event: it pops the heap directly with ``heappop`` bound to a local and
keeps the live/cancelled counters and the top-is-live invariant itself.
:meth:`EventQueue.pop` is the one-event path behind
:meth:`Simulator.step <repro.sim.engine.Simulator.step>`.

The heap list's *identity* is stable for the queue's lifetime: compaction
rebuilds it in place (``self._heap[:] = ...``), so hot loops may safely
bind the list to a local once.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class Event:
    """A single scheduled callback.

    Attributes:
        time: Absolute virtual time at which the event fires.
        seq: Monotonic tie-breaker assigned by the queue.
        key: Precomputed heap key ``(time, seq)``.
        callback: Zero-argument callable invoked when the event fires.
        cancelled: Cancelled events stay in the heap but are skipped.
        in_heap: True while the event occupies a heap slot.  A caller of
            :meth:`EventQueue.pop` holds a popped event whose callback is
            still set and may cancel it — ``EventQueue.cancel`` must then
            skip the heap-counter bookkeeping for the already-popped event.
        queue: The owning queue.  The event doubles as its own cancellable
            handle (:meth:`cancel` / :attr:`active`), so scheduling does
            not allocate a separate wrapper object per event — the
            scheduling path is as hot as the drain path.
        label: Optional human-readable tag used in traces and error messages.
    """

    __slots__ = ("time", "seq", "key", "callback", "cancelled", "in_heap",
                 "queue", "label")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Optional[Callable[[], Any]],
        label: str = "",
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.key = (time, seq)
        self.callback = callback
        self.cancelled = False
        self.in_heap = True
        self.queue = queue
        self.label = label

    @property
    def active(self) -> bool:
        """True while the callback has neither fired nor been cancelled."""
        return not self.cancelled and self.callback is not None

    def cancel(self) -> None:
        """Cancel the scheduled callback (no-op once fired or cancelled)."""
        if self.cancelled or self.callback is None:
            return
        if self.queue is not None:
            self.queue.cancel(self)
        else:  # detached event (tests): just mark it dead
            self.cancelled = True
            self.callback = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return (f"Event(t={self.time}, seq={self.seq}, {state}, "
                f"label={self.label!r})")


class EventQueue:
    """Min-heap of :class:`Event` with deterministic total ordering.

    Args:
        compaction_threshold: Floor on the heap size before automatic
            compaction kicks in; below it the O(n) rebuild costs more than
            it saves.  The effective threshold adapts upward after each
            rebuild (to twice the surviving heap) so churn-heavy workloads
            don't thrash on back-to-back rebuilds, and decays back toward
            the floor once the heap shrinks.
    """

    def __init__(self, *, compaction_threshold: int = 64) -> None:
        self._heap: list[tuple[tuple, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled = 0
        self._base_threshold = compaction_threshold
        self._compaction_threshold = compaction_threshold
        self._compactions = 0
        self._pushes = 0
        self._peak_heap = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Physical heap entries, live plus not-yet-collected cancelled."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """Number of heap rebuilds performed so far."""
        return self._compactions

    @property
    def pushes(self) -> int:
        """Total events ever scheduled into this queue."""
        return self._pushes

    @property
    def peak_heap_size(self) -> int:
        """High-water mark of physical heap entries."""
        return self._peak_heap

    @property
    def compaction_threshold(self) -> int:
        """Current (adaptive) minimum heap size for an automatic rebuild."""
        return self._compaction_threshold

    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        *,
        label: str = "",
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule *callback* at *time*, after every event already pushed
        for that time, or at the place *seq* (a cancelled event's, at a
        later time) held among them."""
        if seq is None:
            seq = next(self._counter)
        event = Event(time, seq, callback, label, self)
        heap = self._heap
        heapq.heappush(heap, (event.key, event))
        self._live += 1
        self._pushes += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)
        return event

    def cancel(self, event: Event) -> None:
        """Mark *event* cancelled; it is dropped lazily or at compaction."""
        if event.cancelled:
            return
        event.cancelled = True
        event.callback = None  # break reference cycles early
        if not event.in_heap:
            # Already popped: there is no heap slot to account for.
            return
        self._live -= 1
        self._cancelled += 1
        heap = self._heap
        if heap and heap[0][1].cancelled:
            self._prune_top()
        if (len(heap) >= self._compaction_threshold
                and self._cancelled * 2 > len(heap)):
            self.compact()
        elif len(heap) * 4 < self._compaction_threshold:
            # Heap shrank well below the adapted threshold: decay so a
            # later small-but-garbage-heavy phase still gets compacted.
            self._compaction_threshold = max(
                self._base_threshold, len(heap) * 2
            )

    def compact(self) -> int:
        """Drop every cancelled entry and re-heapify.  Returns entries freed.

        Compaction is invisible to ordering: live entries keep their
        precomputed keys, and ``heapify`` restores the heap invariant over
        exactly the surviving entries.  The rebuild happens *in place* so
        the heap list's identity never changes (hot loops hold it in a
        local), and the adaptive threshold doubles past the survivors so
        the next rebuild only fires after real regrowth.
        """
        if not self._cancelled:
            return 0
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if not entry[1].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self._compactions += 1
        self._compaction_threshold = max(
            self._base_threshold, 2 * len(heap)
        )
        return before - len(heap)

    def _prune_top(self) -> None:
        """Restore the 'heap top is live' invariant after a pop/cancel."""
        heap = self._heap
        while heap and heap[0][1].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1

    def pop(self) -> Event:
        """Pop the earliest live event.  Raises IndexError when empty."""
        heap = self._heap
        while heap:
            _, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.in_heap = False
            self._live -= 1
            if heap and heap[0][1].cancelled:
                self._prune_top()
            return event
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None when empty.

        Pure read — the top-is-live invariant means no lazy deletion needs
        to happen here.
        """
        heap = self._heap
        return heap[0][1].time if heap else None
