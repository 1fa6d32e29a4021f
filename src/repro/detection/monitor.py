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
#: Cold-start count that adds one full period of slack to the thresholds
#: when ``load_aware`` is on.
LOAD_COLD_START_REF = 4
#: Cap on the load-aware threshold multiplier.
LOAD_MAX_FACTOR = 3.0


@dataclass(frozen=True)
class DetectionConfig:
    """Settings for the heartbeat detector; its tuning constants are the
    module-level ``UPPER_CASE`` values above.

    Args:
        load_aware: Scale the suspect/confirm thresholds with the node's
            cold-start backlog and the autoscaler's ramp state, so a mass
            scale-out (daemons starved by image pulls and container boots)
            does not trigger a false-suspicion storm.
        load_hb_stretch: Fractional heartbeat-period stretch per in-flight
            cold start on the node — the *physical* load effect on the
            daemon (0 disables; independent of ``load_aware``, which is
            the detector-side compensation).
    """

    load_aware: bool = False
    load_hb_stretch: float = 0.0

    def __post_init__(self) -> None:
        if self.load_hb_stretch < 0:
            raise ValueError("load_hb_stretch must be non-negative")


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
    """Heartbeat monitor replacing the fixed ``DETECTION_DELAY_S`` oracle."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: "Cluster",
        config: DetectionConfig,
        *,
        tracer: Any = NULL_TRACER,
        on_reinstate: Optional[Callable[["Node"], None]] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.config = config
        self.tracer = tracer
        self.on_reinstate = on_reinstate
        #: Optional ChaosInjector; set by the platform so partitioned nodes
        #: drop their heartbeats and zombie onsets anchor latency accounting.
        self.chaos: Any = None
        #: Optional NodeAutoscaler; set by the platform so the load-aware
        #: thresholds can widen during a scale-out ramp (booting nodes).
        self.autoscaler: Any = None
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

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def ensure_running(self, should_continue: Callable[[], bool]) -> None:
        """Start (or restart after an idle stop) the heartbeat chains.

        ``should_continue`` is polled at each beat; once it goes false the
        monitor cancels everything so an idle cluster does not tick forever.
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
            if (
                node.alive
                and node.provisioned
                and not node.zombie
                and node.node_id not in self._beat_handles
            ):
                self._schedule_beat(node)

    def watch_node(self, node: "Node") -> None:
        """Start covering a node that joined after start-up (scale-out).

        No-op until the monitor is running; the freshly provisioned node
        gets a clean arrival history so its boot gap is not read as a
        failure.
        """
        if not self._started or self._stopped:
            return
        if (
            node.alive
            and not node.zombie
            and node.node_id not in self._beat_handles
        ):
            self._last_beat.pop(node.node_id, None)
            self._history.pop(node.node_id, None)
            self._schedule_beat(node)

    def retire_node(self, node_id: str) -> None:
        """Stop covering a drained node the autoscaler retired.

        Cancels its timers and closes any open suspicion; silence from a
        deliberately retired node must not read as a failure.
        """
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

    def _stop_all(self) -> None:
        self._stopped = True
        for handles in (
            self._beat_handles,
            self._suspect_handles,
            self._confirm_handles,
        ):
            for handle in handles.values():
                handle.cancel()
            handles.clear()
        now = self.sim.now
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
    def _period(self, node: "Node") -> float:
        rng = self.sim.rng.stream(f"detection:hb:{node.node_id}")
        u = float(rng.uniform())
        period = HEARTBEAT_INTERVAL_S * (1.0 + HEARTBEAT_JITTER * u)
        # A straggling node's daemon is starved of CPU along with everything
        # else, so its beats stretch — that stretch *is* the gray-failure
        # signal the detector picks up.
        if node.chaos_speed_factor != 1.0:
            period /= node.chaos_speed_factor
        # Mass cold starts starve the daemon too (image pulls and container
        # boots compete for the same cores); each in-flight cold start
        # stretches the beat.  This is the physical effect the load-aware
        # thresholds exist to compensate.
        if self.config.load_hb_stretch > 0.0 and node.cold_starts_in_flight:
            period *= (
                1.0 + self.config.load_hb_stretch * node.cold_starts_in_flight
            )
        return period

    def _load_factor(self, node: "Node") -> float:
        """Threshold multiplier compensating for launch-storm load.

        1.0 unless ``load_aware``: then slack grows with the node's own
        cold-start backlog and adds a full period while the autoscaler has
        nodes booting (a fleet-wide ramp starves every daemon at once).
        """
        if not self.config.load_aware:
            return 1.0
        factor = 1.0 + node.cold_starts_in_flight / LOAD_COLD_START_REF
        if self.autoscaler is not None and self.autoscaler.booting_count:
            factor += 1.0
        return min(factor, LOAD_MAX_FACTOR)

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
        threshold = self.suspect_after(node_id)
        if self.config.load_aware:
            threshold *= self._load_factor(node)
        self._suspect_handles[node_id] = self.sim.call_at(
            now + threshold,
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
        if self.config.load_aware:
            # The threshold was scaled by the load factor *at arming time*;
            # a launch storm that began afterwards stretches the beat
            # without having widened the timer.  Re-judge the gap against
            # the current load before acting, and push the timer out if the
            # node has earned more slack since.
            last = self._last_beat.get(node_id)
            if last is not None:
                allowed = self.suspect_after(node_id) * self._load_factor(
                    node
                )
                # Compare against the re-arm target, not the gap: a timer
                # pushed to ``last + allowed`` must land strictly in the
                # future, or float rounding re-arms the same instant
                # forever.
                fire_at = last + allowed
                if fire_at > now:
                    self._suspect_handles[node_id] = self.sim.call_at(
                        fire_at,
                        lambda: self._suspect(node),
                        label=f"suspect:{node_id}",
                    )
                    return
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
        confirm_after = CONFIRM_TIMEOUT_S
        if self.config.load_aware:
            confirm_after *= self._load_factor(node)
        self._confirm_handles[node_id] = self.sim.call_in(
            confirm_after,
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
