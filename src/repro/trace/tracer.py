"""Span recording: the tracer, the null tracer, and the span record.

Design constraints (they shape everything here):

* **Determinism.**  A traced simulated run must be a pure function of the
  seed.  Span ids follow recording order — which, on the single-threaded
  virtual clock, is event-execution order — and recording never schedules
  events or draws randomness, so tracing cannot perturb the run it
  observes.  A span recorded after the fact with ``recorded_at`` (a folded
  state boundary materialised later) takes the id it would have had if
  recorded at that time; :meth:`Tracer.spans` renumbers to restore it.
* **Zero-cost default.**  Every instrumented module takes a tracer that
  defaults to the shared :data:`NULL_TRACER`; the null methods return a
  single preallocated dummy span, so untraced hot paths pay one attribute
  lookup and one call.
* **Callback-friendly.**  The simulator is event-driven: spans open in one
  callback and close in another, so the API is explicit
  ``begin()``/``finish()`` handles rather than context managers.
* **Thread-safety.**  The real executor records from a thread pool; id
  allocation and span registration take a lock.  (Simulated runs are
  single-threaded; the uncontended lock is noise there.)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: The span vocabulary used by the built-in instrumentation.  Custom kinds
#: are allowed (the exporters don't care); these are the ones the paper's
#: §V time-accounting reasons about.
SPAN_KINDS: tuple[str, ...] = (
    "invoke",          # whole logical function invocation (submit → done)
    "queue",           # container request waiting in the controller queue
    "cold_start",      # container launch + init (and image pull, if modeled)
    "exec",            # one attempt executing states on a container
    "checkpoint_write",  # one checkpoint charge (serialize + write)
    "flush",           # asynchronous flush of a checkpoint to shared storage
    "restore",         # checkpoint fetch during recovery (part of t_res)
    "network_flow",    # one transfer on the flow-level fabric
    "recovery",        # kill → pre-failure progress regained
    "suspicion",       # heartbeat detector suspects a node (cordon window)
    "backoff",         # one retry wait against a degraded endpoint
    "chaos",           # one injected gray-failure window (instant)
)


@dataclass
class Span:
    """One recorded operation with a start, an end, and attributes.

    ``end`` is ``None`` while the span is open; ``attrs`` values should be
    JSON-serializable scalars so the exporters stay lossless.
    """

    span_id: int
    parent_id: Optional[int]
    kind: str
    name: str
    start: float
    end: Optional[float] = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None


#: Shared dummy returned by the null tracer so instrumentation can pass
#: ``parent=span`` unconditionally.
_NULL_SPAN = Span(span_id=0, parent_id=None, kind="", name="", start=0.0)


class NullTracer:
    """Tracing disabled: every call is a no-op.

    This is the default tracer everywhere, and the reason untraced runs are
    byte-identical to the pre-tracing code: nothing is recorded, no clock
    is read, no state accumulates.
    """

    enabled = False

    def set_clock(self, clock: Callable[[], float]) -> None:
        pass

    def begin(
        self,
        kind: str,
        name: str = "",
        *,
        parent: Optional[Span] = None,
        t: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        return _NULL_SPAN

    def finish(
        self, span: Span, *, t: Optional[float] = None, **attrs: Any
    ) -> None:
        pass

    def instant(
        self,
        kind: str,
        name: str = "",
        *,
        parent: Optional[Span] = None,
        t: Optional[float] = None,
        duration: float = 0.0,
        recorded_at: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        return _NULL_SPAN

    def close_open(self, t: Optional[float] = None, reason: str = "") -> int:
        return 0

    def spans(self) -> tuple[Span, ...]:
        return ()


#: Module-level singleton; ``tracer or NULL_TRACER`` is the idiom used by
#: every instrumented constructor.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records spans against a pluggable clock.

    Args:
        clock: Zero-argument callable returning the current time in
            seconds.  Platforms bind the virtual clock via
            :meth:`set_clock` after the engine exists; the real executor
            passes ``time.perf_counter`` directly (see
            :func:`wallclock_tracer`).
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 1
        # Clock reading at which each span counts as recorded (parallel to
        # ``_spans``), the latest one, and whether a span was recorded with
        # an explicit ``recorded_at`` earlier than a span before it.
        self._recorded: list[float] = []
        self._latest = float("-inf")
        self._backdated = False

    # ------------------------------------------------------------------
    def set_clock(self, clock: Callable[[], float]) -> None:
        """Bind the time source (only if none was given at construction)."""
        if self._clock is None:
            self._clock = clock

    def _now(self, t: Optional[float]) -> float:
        if t is not None:
            return t
        if self._clock is None:
            raise RuntimeError(
                "Tracer has no clock; bind one with set_clock() or pass "
                "explicit timestamps"
            )
        return self._clock()

    # ------------------------------------------------------------------
    def begin(
        self,
        kind: str,
        name: str = "",
        *,
        parent: Optional[Span] = None,
        t: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; finish it later with :meth:`finish`."""
        return self._record(kind, name, parent, self._now(t), t, None, attrs)

    def _record(
        self,
        kind: str,
        name: str,
        parent: Optional[Span],
        start: float,
        t: Optional[float],
        recorded_at: Optional[float],
        attrs: dict[str, Any],
    ) -> Span:
        backdated = recorded_at is not None
        if not backdated:
            recorded_at = (
                start if t is None or self._clock is None else self._clock()
            )
        parent_id = parent.span_id if parent is not None and parent.span_id else None
        with self._lock:
            span = Span(
                span_id=self._next_id,
                parent_id=parent_id,
                kind=kind,
                name=name or kind,
                start=start,
                attrs=attrs,
            )
            self._next_id += 1
            self._spans.append(span)
            self._recorded.append(recorded_at)
            if recorded_at >= self._latest:
                self._latest = recorded_at
            elif backdated:
                self._backdated = True
        return span

    def finish(
        self, span: Span, *, t: Optional[float] = None, **attrs: Any
    ) -> None:
        """Close *span* (idempotent; later calls are ignored)."""
        if span is _NULL_SPAN or span.end is not None:
            return
        span.end = self._now(t)
        if attrs:
            span.attrs.update(attrs)

    def instant(
        self,
        kind: str,
        name: str = "",
        *,
        parent: Optional[Span] = None,
        t: Optional[float] = None,
        duration: float = 0.0,
        recorded_at: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-bounded span (known duration, e.g. a charge).

        ``recorded_at`` is the clock time the span counts as recorded at
        when that is earlier than now.
        """
        span = self._record(
            kind, name, parent, self._now(t), t, recorded_at, attrs
        )
        span.end = span.start + duration
        return span

    # ------------------------------------------------------------------
    def close_open(self, t: Optional[float] = None, reason: str = "") -> int:
        """Finish every still-open span at *t* (end of run); count them.

        Spans legitimately end up open when the run stops first — e.g. the
        ``recovery`` span of an unrecovered failure.  They are closed with
        ``open_at_exit`` (and optionally *reason*) so exporters and stats
        see bounded intervals while the anomaly stays visible.
        """
        end = self._now(t)
        closed = 0
        with self._lock:
            for span in self._spans:
                if span.end is None:
                    span.end = max(end, span.start)
                    span.attrs["open_at_exit"] = True
                    if reason:
                        span.attrs["close_reason"] = reason
                    closed += 1
        return closed

    def spans(self) -> tuple[Span, ...]:
        """All recorded spans, in recording order."""
        with self._lock:
            if self._backdated:
                self._renumber()
            return tuple(self._spans)

    def _renumber(self) -> None:
        """Put backdated spans in recording order and renumber every span.

        The sort is stable, so spans recorded at the same time keep their
        order.  Span ids are list positions + 1 before and after, and
        parent ids are remapped with them.
        """
        order = sorted(range(len(self._spans)), key=self._recorded.__getitem__)
        new_id = [0] * len(order)
        for position, old in enumerate(order):
            new_id[old] = position + 1
        spans = [self._spans[old] for old in order]
        for span in spans:
            span.span_id = new_id[span.span_id - 1]
            if span.parent_id is not None:
                span.parent_id = new_id[span.parent_id - 1]
        self._spans = spans
        self._recorded = [self._recorded[old] for old in order]
        self._backdated = False


def wallclock_tracer() -> Tracer:
    """A tracer bound to real time, for the thread-based local executor."""
    return Tracer(clock=time.perf_counter)
