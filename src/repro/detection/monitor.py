"""Per-node heartbeats and phi-accrual-style suspicion detection.

Every node's invoker daemon emits a heartbeat on the virtual clock every
``HEARTBEAT_INTERVAL_S`` (plus deterministic jitter).  The Core Module keeps
a sliding window of inter-arrival gaps per node and, after each arrival,
arms a *suspect* timer at ``mu + z * sigma`` past the arrival, where ``z``
is the normal quantile matching the configured phi threshold — the same
shape as the phi-accrual detector of Hayashibara et al. that Akka and
Cassandra ship.

A node whose gap crosses the threshold is *suspected*: it is cordoned for
placement (not killed) and a confirm timer starts.  A heartbeat arriving
while suspected is a false positive — the node is reinstated and the
incident counted.  Silence through ``CONFIRM_TIMEOUT_S`` *declares* the node
failed: an alive-but-gray node (zombie, long partition) is fenced via
``cluster.fail_node``, and any recovery callbacks waiting on the verdict
fire after a small processing delay.

Strategies route their ``after_detection`` continuations through
:meth:`DetectionModule.notify_after_detection`, replacing the constant
``DETECTION_DELAY_S`` oracle: a container kill on a healthy node is noticed
at the next status heartbeat; a node death is noticed when the detector
declares it.

A healthy node's beats change nothing anyone reads until something
observes the node, so they are *folded*: the node keeps no engine events,
and its beats are materialised on demand from the same float chain when
an observer looks (DESIGN.md, "Heartbeat fold addendum").
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from statistics import NormalDist
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.trace.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node
    from repro.sim.engine import EventHandle, Simulator


#: Base heartbeat emission period per node.
HEARTBEAT_INTERVAL_S = 0.5
#: Per-beat jitter fraction; each period is scaled by ``1 + jitter * u``
#: with ``u`` drawn from the node's RNG stream.
HEARTBEAT_JITTER = 0.1
#: Sliding-window length (inter-arrival gaps) per node.
WINDOW = 20
#: Suspicion level; the gap threshold sits at the ``1 - 10^-phi`` quantile
#: of the observed gap distribution.
PHI_THRESHOLD = 8.0
#: Floor on the gap standard deviation, so a perfectly regular history
#: does not hair-trigger the detector.
MIN_STD_S = 0.02
#: Silence beyond the suspect point before the node is declared failed
#: (cordon-then-confirm split).
CONFIRM_TIMEOUT_S = 4.0
#: Control-plane handling delay between a verdict and the recovery
#: callback firing.
PROCESSING_DELAY_S = 0.05
#: Jitter draws taken from a node's stream at a time; a batched
#: ``uniform(size=k)`` yields the same values as k scalar draws.
PERIOD_CHUNK = 64


@dataclass(frozen=True)
class DetectionConfig:
    """A scenario with ``detection=DetectionConfig()`` turns the heartbeat
    detector on; its tuning values are the module-level ``UPPER_CASE``
    constants above."""


@dataclass(frozen=True)
class DetectionStats:
    """Counters exported into ``RunSummary`` after a run."""

    heartbeats_sent: int
    heartbeats_dropped: int
    suspicions: int
    false_suspicions: int
    detections: int
    detection_latency_mean_s: float
    cordoned_s: float


class DetectionModule:
    """Heartbeat monitor replacing the fixed ``DETECTION_DELAY_S`` oracle.

    At the end of a real beat a healthy node (:meth:`_can_fold`) folds: its
    ``hb:`` and ``suspect:`` events are cancelled and only its next beat
    time is kept.  The suspect timer could not have fired before that beat:
    every gap is at least ``HEARTBEAT_INTERVAL_S``, so every threshold is
    at least ``0.5 + z * MIN_STD_S`` (about 0.612 s), while a healthy
    period is at most 0.55 s.  :meth:`unfold` applies the beats before now
    and puts the node back on events; it runs before a straggler, zombie or
    partition starts on the node, at its death, at its retirement, and for
    every node when the keep-alive may turn false.  A waiter does not
    unfold a node: one ``hb:`` event at its next beat releases it.
    ``CanaryPlatform.run`` applies the beats up to its stop time
    (:meth:`materialise`).
    """

    def __init__(
        self,
        sim: "Simulator",
        cluster: "Cluster",
        *,
        tracer: Any = NULL_TRACER,
        on_reinstate: Optional[Callable[["Node"], None]] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.tracer = tracer
        self.on_reinstate = on_reinstate
        #: Optional ChaosInjector; set by the platform so partitioned nodes
        #: drop their heartbeats and zombie onsets anchor latency accounting.
        self.chaos: Any = None
        # Normal quantile matching the phi threshold: a gap is suspicious
        # once its probability under the fitted gap distribution drops below
        # 10^-phi.
        self._z = NormalDist().inv_cdf(1.0 - 10.0 ** (-PHI_THRESHOLD))
        self._history: dict[str, deque[float]] = {}
        self._last_beat: dict[str, float] = {}
        self._beat_handles: dict[str, "EventHandle"] = {}
        self._suspect_handles: dict[str, "EventHandle"] = {}
        self._confirm_handles: dict[str, "EventHandle"] = {}
        self._suspected_at: dict[str, float] = {}
        self._suspicion_spans: dict[str, Any] = {}
        self._we_cordoned: set[str] = set()
        self._declared: set[str] = set()
        self._waiters: dict[str, list[tuple[Callable[[], None], str]]] = {}
        #: Folded (healthy) nodes: node id -> (node, time of its next beat).
        self._folded: dict[str, tuple["Node", float]] = {}
        #: Per-node jitter draws not yet used, last one next.
        self._draws: dict[str, list[float]] = {}
        self._should_continue: Optional[Callable[[], bool]] = None
        self._started = False
        self._stopped = False
        # Per-node suspicion history (true and false alike): the S39
        # suspicion-aware placement policy reads this to distrust flappy
        # nodes even after they are reinstated.
        self.node_suspicions: dict[str, int] = {}
        # Statistics.
        self.heartbeats_sent = 0
        self.heartbeats_dropped = 0
        self.suspicions = 0
        self.false_suspicions = 0
        self.detections = 0
        self.detection_latencies: list[float] = []
        self.cordoned_s = 0.0
        # A dead node's beats go back on events: the next one finds it
        # dead, and the armed suspect timer starts the detection.
        cluster.on_node_failure(lambda node, lost: self.unfold(node))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def ensure_running(self, should_continue: Callable[[], bool]) -> None:
        """Start (or restart after an idle stop) the heartbeat chains.

        ``should_continue`` is polled at each real beat; once it goes false
        the monitor cancels everything so an idle cluster does not tick
        forever.  Folded nodes do not beat on events, so the owner must
        call :meth:`unfold` (all nodes) wherever ``should_continue`` may
        turn false; the first real beat after that stops the monitor.
        """
        self._should_continue = should_continue
        if self._started and not self._stopped:
            return
        if self._stopped:
            # Restarting after an idle gap: forget arrival times so the gap
            # across the stop does not read as a mass failure.
            self._last_beat.clear()
        self._started = True
        self._stopped = False
        for node in self.cluster.nodes:
            if node.provisioned and self._uncovered(node):
                self._schedule_beat(node)

    def _uncovered(self, node: "Node") -> bool:
        """Whether *node* could beat but has no beat chain, real or folded."""
        node_id = node.node_id
        return (
            node.alive
            and not node.zombie
            and node_id not in self._beat_handles
            and node_id not in self._folded
        )

    def watch_node(self, node: "Node") -> None:
        """Start covering a node that joined after start-up (scale-out).

        No-op until the monitor is running; the freshly provisioned node
        gets a clean arrival history so its boot gap is not read as a
        failure.
        """
        if not self._started or self._stopped:
            return
        if self._uncovered(node):
            self._last_beat.pop(node.node_id, None)
            self._history.pop(node.node_id, None)
            self._schedule_beat(node)

    def retire_node(self, node_id: str) -> None:
        """Stop covering a drained node the autoscaler retired.

        Cancels its timers and closes any open suspicion; silence from a
        deliberately retired node must not read as a failure.  Callbacks
        waiting for its next heartbeat fire after the processing delay, as
        a declaration would release them: that beat never comes.
        """
        if node_id in self._folded:
            self._materialise(node_id, self.sim.now)
            del self._folded[node_id]
        for handles in (
            self._beat_handles,
            self._suspect_handles,
            self._confirm_handles,
        ):
            handle = handles.pop(node_id, None)
            if handle is not None:
                handle.cancel()
        suspected_at = self._suspected_at.pop(node_id, None)
        if suspected_at is not None:
            self.cordoned_s += self.sim.now - suspected_at
        span = self._suspicion_spans.pop(node_id, None)
        if span is not None:
            self.tracer.finish(span, outcome="retired")
        self._we_cordoned.discard(node_id)
        self._last_beat.pop(node_id, None)
        self._history.pop(node_id, None)
        self._flush_waiters(node_id)

    def _stop_all(self) -> None:
        self._stopped = True
        now = self.sim.now
        for node_id in self._folded:
            self._materialise(node_id, now)
        self._folded.clear()
        for handles in (
            self._beat_handles,
            self._suspect_handles,
            self._confirm_handles,
        ):
            for handle in handles.values():
                handle.cancel()
            handles.clear()
        for node_id, since in self._suspected_at.items():
            self.cordoned_s += now - since
            span = self._suspicion_spans.pop(node_id, None)
            if span is not None:
                self.tracer.finish(span, outcome="end-of-run")
        self._suspected_at.clear()
        self._waiters.clear()

    # ------------------------------------------------------------------
    # Heartbeat emission
    # ------------------------------------------------------------------
    def _jitter_draws(self, node_id: str) -> list[float]:
        """The node's unused jitter draws, refilled in chunks; pop the next."""
        draws = self._draws.get(node_id)
        if not draws:
            rng = self.sim.rng.stream(f"detection:hb:{node_id}")
            draws = self._draws[node_id] = rng.uniform(size=PERIOD_CHUNK).tolist()
            draws.reverse()
        return draws

    def _period(self, node: "Node") -> float:
        u = self._jitter_draws(node.node_id).pop()
        period = HEARTBEAT_INTERVAL_S * (1.0 + HEARTBEAT_JITTER * u)
        # A straggling node's daemon is starved of CPU along with everything
        # else, so its beats stretch — that stretch *is* the gray-failure
        # signal the detector picks up.
        if node.chaos_speed_factor != 1.0:
            period /= node.chaos_speed_factor
        return period

    def _schedule_beat(self, node: "Node") -> None:
        self._beat_handles[node.node_id] = self.sim.call_in(
            self._period(node),
            lambda: self._beat(node),
            label=f"hb:{node.node_id}",
        )

    def _beat(self, node: "Node") -> None:
        self._beat_handles.pop(node.node_id, None)
        if self._stopped:
            return
        if self._should_continue is not None and not self._should_continue():
            self._stop_all()
            return
        if not node.alive or node.zombie:
            # The daemon died with the node (or is wedged): silence from
            # here on — the detector notices via the armed suspect timer.
            return
        self.heartbeats_sent += 1
        if self.chaos is not None and self.chaos.heartbeat_blocked(
            node.node_id
        ):
            self.heartbeats_dropped += 1
        else:
            self._on_arrival(node)
        self._schedule_beat(node)
        if self._can_fold(node):
            self._fold(node)

    def _on_arrival(self, node: "Node") -> None:
        now = self.sim.now
        node_id = node.node_id
        last = self._last_beat.get(node_id)
        if last is not None:
            history = self._history.setdefault(
                node_id, deque(maxlen=WINDOW)
            )
            history.append(now - last)
        self._last_beat[node_id] = now
        if node_id in self._suspected_at:
            self._reinstate(node, now)
        self._flush_waiters(node_id)
        self._arm_suspect(node, now)

    # ------------------------------------------------------------------
    # Folded beats
    # ------------------------------------------------------------------
    def _can_fold(self, node: "Node") -> bool:
        """Whether *node* is healthy: its beats only extend the float chain
        and its gap history until something observes it."""
        node_id = node.node_id
        return (
            node.alive
            and not node.zombie
            and node.chaos_speed_factor == 1.0
            and node_id not in self._suspected_at
            and node_id not in self._declared
            and node_id not in self._waiters
            and not (
                self.chaos is not None and self.chaos.heartbeat_blocked(node_id)
            )
        )

    def _fold(self, node: "Node") -> None:
        node_id = node.node_id
        self._suspect_handles.pop(node_id).cancel()
        handle = self._beat_handles.pop(node_id)
        handle.cancel()
        self._folded[node_id] = (node, handle.time)

    def _materialise(
        self, node_id: str, until: float, inclusive: bool = False
    ) -> None:
        """Apply a folded node's beats before *until* (or at it, with
        *inclusive*): each arrives, as ``_beat`` would have it."""
        node, t = self._folded[node_id]
        if t > until or (t == until and not inclusive):
            return
        last = self._last_beat[node_id]
        history = self._history.setdefault(node_id, deque(maxlen=WINDOW))
        draws = self._jitter_draws(node_id)
        beats = 0
        while t < until or (inclusive and t == until):
            history.append(t - last)
            last = t
            beats += 1
            if not draws:
                draws = self._jitter_draws(node_id)
            t = t + HEARTBEAT_INTERVAL_S * (1.0 + HEARTBEAT_JITTER * draws.pop())
        self.heartbeats_sent += beats
        self._last_beat[node_id] = last
        self._folded[node_id] = (node, t)

    def materialise(self, until: float) -> None:
        """Apply every folded beat at or before *until* (``run(until=…)``
        fires the events at its stop time); the nodes stay folded."""
        for node_id in self._folded:
            self._materialise(node_id, until, inclusive=True)

    def unfold(self, node: Optional["Node"] = None) -> None:
        """Put *node*'s folded beats (every node's, without one) back on
        engine events: apply the beats before now, schedule the next one at
        its planned time and arm the last arrival's suspect timer.

        Called just before something the health predicate read changes,
        and by the owner wherever the keep-alive may turn false.
        """
        if node is None:
            for node_id in list(self._folded):
                self._unfold(node_id)
        elif node.node_id in self._folded:
            self._unfold(node.node_id)

    def _unfold(self, node_id: str) -> None:
        handle = self._beat_handles.pop(node_id, None)
        if handle is not None:
            # A waiter's event at the folded next beat; the stepwise beat
            # below replaces it.
            handle.cancel()
        self._materialise(node_id, self.sim.now)
        node, t = self._folded.pop(node_id)
        self._arm_suspect(node, self._last_beat[node_id])
        self._beat_handles[node_id] = self.sim.call_at(
            t, lambda: self._beat(node), label=f"hb:{node_id}"
        )

    # ------------------------------------------------------------------
    # Suspicion machinery
    # ------------------------------------------------------------------
    def suspect_after(self, node_id: str) -> float:
        """Gap beyond which *node_id* becomes suspected (phi threshold)."""
        history = self._history.get(node_id)
        if not history:
            # No gaps observed yet: assume the configured period at its
            # mean jitter and the floor deviation.
            mu = HEARTBEAT_INTERVAL_S * (1.0 + 0.5 * HEARTBEAT_JITTER)
            sigma = MIN_STD_S
        else:
            mu = sum(history) / len(history)
            var = sum((g - mu) ** 2 for g in history) / len(history)
            sigma = max(math.sqrt(var), MIN_STD_S)
        return mu + self._z * sigma

    def _arm_suspect(self, node: "Node", now: float) -> None:
        node_id = node.node_id
        handle = self._suspect_handles.get(node_id)
        if handle is not None:
            handle.cancel()
        self._suspect_handles[node_id] = self.sim.call_at(
            now + self.suspect_after(node_id),
            lambda: self._suspect(node),
            label=f"suspect:{node_id}",
        )

    def _suspect(self, node: "Node") -> None:
        node_id = node.node_id
        self._suspect_handles.pop(node_id, None)
        if (
            self._stopped
            or node_id in self._declared
            or node_id in self._suspected_at
        ):
            return
        now = self.sim.now
        self.suspicions += 1
        self.node_suspicions[node_id] = (
            self.node_suspicions.get(node_id, 0) + 1
        )
        self._suspected_at[node_id] = now
        if node.alive and not node.cordoned:
            # Cordon, don't kill: the node may merely be slow or cut off.
            node.cordoned = True
            self._we_cordoned.add(node_id)
        self._suspicion_spans[node_id] = self.tracer.begin(
            "suspicion", f"suspicion:{node_id}", node=node_id
        )
        self._confirm_handles[node_id] = self.sim.call_in(
            CONFIRM_TIMEOUT_S,
            lambda: self._confirm(node),
            label=f"confirm:{node_id}",
        )

    def _reinstate(self, node: "Node", now: float) -> None:
        node_id = node.node_id
        suspected_at = self._suspected_at.pop(node_id)
        self.false_suspicions += 1
        self.cordoned_s += now - suspected_at
        handle = self._confirm_handles.pop(node_id, None)
        if handle is not None:
            handle.cancel()
        if node_id in self._we_cordoned:
            self._we_cordoned.discard(node_id)
            node.cordoned = False
        span = self._suspicion_spans.pop(node_id, None)
        if span is not None:
            self.tracer.finish(span, outcome="reinstated")
        if self.on_reinstate is not None:
            self.on_reinstate(node)

    def _confirm(self, node: "Node") -> None:
        node_id = node.node_id
        self._confirm_handles.pop(node_id, None)
        if self._stopped or node_id not in self._suspected_at:
            return
        now = self.sim.now
        suspected_at = self._suspected_at.pop(node_id)
        self.cordoned_s += now - suspected_at
        self._declared.add(node_id)
        self._we_cordoned.discard(node_id)
        self.detections += 1
        latency = now - self._failure_onset(node, suspected_at)
        self.detection_latencies.append(latency)
        span = self._suspicion_spans.pop(node_id, None)
        if span is not None:
            self.tracer.finish(span, outcome="confirmed", latency=latency)
        if node.alive:
            # Fence the gray node: from the platform's perspective it is
            # now dead, so strategies recover its work elsewhere.
            self.cluster.fail_node(node_id, now)
        self._flush_waiters(node_id)

    def _failure_onset(self, node: "Node", suspected_at: float) -> float:
        """Best-known onset time of the failure being confirmed."""
        if node.failed_at is not None:
            return node.failed_at
        if self.chaos is not None:
            onset = self.chaos.gray_onset.get(node.node_id)
            if onset is not None:
                return onset
        last = self._last_beat.get(node.node_id)
        return last if last is not None else suspected_at

    # ------------------------------------------------------------------
    # Recovery-callback routing (replaces the constant-delay oracle)
    # ------------------------------------------------------------------
    def notify_after_detection(
        self, node_id: str, callback: Callable[[], None], label: str = ""
    ) -> None:
        """Fire *callback* once the detector has a verdict on *node_id*.

        A loss on an already-declared node fires after the processing
        delay; otherwise the callback waits for the next heartbeat from
        the node (status report carrying the container's death) or for the
        node's own declaration — whichever the detector reaches first.
        """
        label = label or f"detect-notify:{node_id}"
        if self._stopped or node_id in self._declared:
            self.sim.call_in(PROCESSING_DELAY_S, callback, label=label)
            return
        self._waiters.setdefault(node_id, []).append((callback, label))
        if node_id in self._folded and node_id not in self._beat_handles:
            # The node stays folded: one event at its next beat applies
            # that beat and releases the waiters, as the real beat would.
            self._materialise(node_id, self.sim.now)
            t = self._folded[node_id][1]
            self._beat_handles[node_id] = self.sim.call_at(
                t, lambda: self._folded_beat(node_id), label=f"hb:{node_id}"
            )

    def _folded_beat(self, node_id: str) -> None:
        del self._beat_handles[node_id]
        self._materialise(node_id, self.sim.now, inclusive=True)
        self._flush_waiters(node_id)

    def _flush_waiters(self, node_id: str) -> None:
        waiters = self._waiters.pop(node_id, None)
        if not waiters:
            return
        for callback, label in waiters:
            self.sim.call_in(PROCESSING_DELAY_S, callback, label=label)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_suspected(self, node_id: str) -> bool:
        return node_id in self._suspected_at

    def is_declared(self, node_id: str) -> bool:
        return node_id in self._declared

    def suspicion_score(self, node_id: str) -> float:
        """Placement-facing distrust score for *node_id*.

        Each historical suspicion (false positives included — a node the
        detector flagged once is a gray-failure risk) counts 1; a live
        suspicion adds 100 and a declared failure 1000, so the ordering
        is declared > suspected > flappy > clean regardless of history
        depth.
        """
        score = float(self.node_suspicions.get(node_id, 0))
        if node_id in self._suspected_at:
            score += 100.0
        if node_id in self._declared:
            score += 1000.0
        return score

    def stats(self) -> DetectionStats:
        latencies = self.detection_latencies
        mean = sum(latencies) / len(latencies) if latencies else 0.0
        return DetectionStats(
            heartbeats_sent=self.heartbeats_sent,
            heartbeats_dropped=self.heartbeats_dropped,
            suspicions=self.suspicions,
            false_suspicions=self.false_suspicions,
            detections=self.detections,
            detection_latency_mean_s=mean,
            cordoned_s=self.cordoned_s,
        )
