"""S40: the adaptive fault-tolerance feedback controller.

Once per (jittered) epoch on the virtual clock the controller samples four
live signals — observed failures since the last epoch, the S36 detector's
live suspicions, the S37 predictor's failure forecast, and per-tenant SLO
slack from the S38 traffic layer — folds them into a *stance* (protect /
neutral / relax), and retunes three platform knobs:

* the global checkpoint interval (``CheckpointModule.global_interval``),
* a replication boost (``ReplicationModule.target_boost`` — extra warm
  replicas on top of each job's base target while the platform is at risk),
* placement-avoidance hints (``PlacementPolicy.set_hints`` — steer new
  containers away from suspected or fabric-saturated nodes).

Every knob is damped with hysteresis (``HYSTERESIS_EPOCHS`` consecutive
identical proposals before a retune lands) so one noisy epoch never
thrashes checkpoint cadence or replica churn.  The only randomness is the
epoch-period jitter, drawn from the dedicated ``adaptive:jitter`` stream —
an adaptive run stays a pure function of the seed, and runs with
``adaptive=None`` never construct the stream at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.trace.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.sim.engine import Simulator

#: Base epoch length on the virtual clock; each epoch the controller
#: samples its signals and (maybe) retunes.
EPOCH_S = 2.0
#: Fractional jitter applied to each epoch period from the
#: ``adaptive:jitter`` stream, so the controller never phase-locks with
#: heartbeats or chaos windows.
EPOCH_JITTER = 0.05
#: Consecutive identical proposals required before a checkpoint/replication
#: retune (or a pressure-based placement hint) is applied — the damping
#: that keeps the controller from thrashing on a single noisy epoch.
HYSTERESIS_EPOCHS = 2
#: Interval pushed when protecting (more frequent checkpoints).
CHECKPOINT_MIN_INTERVAL = 1
#: Interval pushed when relaxing (cheaper checkpoints).
CHECKPOINT_MAX_INTERVAL = 8
#: Extra warm replicas requested on top of the base replication target
#: while protecting.
REPLICATION_MAX_BOOST = 2
#: Risk score at/above which the stance turns protective.  Risk per epoch
#: = new failures + 2x live-suspected nodes + 2x predicted-failing nodes.
RISK_PROTECT = 2.0
#: Minimum per-tenant SLO slack fraction ``(deadline - p99) / deadline``;
#: below it the stance turns protective even with zero observed risk.
SLO_GUARD = 0.25
#: Slack fraction above which (with zero risk) the stance relaxes to the
#: cheap end of the knobs.
RELAX_SLACK = 0.75
#: ``FlowNetwork.node_pressure`` level a node must sustain for
#: ``HYSTERESIS_EPOCHS`` epochs before placement starts steering new
#: containers away from it.
PRESSURE_THRESHOLD = 6
#: Detector suspicion score at/above which a node is hinted immediately
#: (the detector already applies its own confirmation delay, so no extra
#: hysteresis here).  1.0 distrusts any node the detector ever flagged —
#: one suspicion incident scores 1.0 — matching the S39 ``suspicion``
#: policy's treatment of flappy nodes.
SUSPICION_HINT_SCORE = 1.0
#: Cap on the fraction of provisioned nodes that may be hinted away at
#: once — placement must always keep a majority of the fleet eligible.
MAX_HINTED_FRACTION = 0.5

#: (checkpoint interval override or None, replication boost) — one knob
#: proposal; applied only after ``HYSTERESIS_EPOCHS`` identical epochs.
Proposal = tuple[Optional[int], int]


class AdaptiveController:
    """Feedback loop retuning checkpointing, replication, and placement."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: "Cluster",
        *,
        checkpointer: Any = None,
        replication: Any = None,
        placement: Any = None,
        detection: Any = None,
        network: Any = None,
        predictor: Any = None,
        metrics: Any = None,
        traffic: Any = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.checkpointer = checkpointer
        self.replication = replication
        self.placement = placement
        self.detection = detection
        self.network = network
        self.predictor = predictor
        self.metrics = metrics
        self.traffic = traffic
        self.tracer = tracer
        self._rng = sim.rng.stream("adaptive:jitter")
        self._should_continue: Optional[Callable[[], bool]] = None
        self._running = False
        self._last_failures = 0
        # Hysteresis state for the (interval, boost) knob pair.
        self._pending: Optional[Proposal] = None
        self._pending_streak = 0
        self._applied: Proposal = (None, 0)
        # Per-node consecutive epochs over the fabric-pressure threshold.
        self._pressure_streak: dict[str, int] = {}
        self._hinted: frozenset[str] = frozenset()
        # Statistics (exported into the run summary).
        self.epochs = 0
        self.interval_changes = 0
        self.boost_changes = 0
        self.hint_changes = 0
        self.stance = "neutral"

    # ------------------------------------------------------------------
    # Epoch loop (same keep-alive shape as the autoscaler)
    # ------------------------------------------------------------------
    def ensure_running(self, should_continue: Callable[[], bool]) -> None:
        """Arm the epoch loop (idempotent; restartable after a stop)."""
        self._should_continue = should_continue
        if self._running:
            return
        self._running = True
        self._schedule_tick()

    def _schedule_tick(self) -> None:
        jitter = EPOCH_JITTER * float(self._rng.random())
        period = EPOCH_S * (1.0 + jitter)
        self.sim.call_in(period, self._tick, label="adaptive-epoch")

    def _tick(self) -> None:
        if self._should_continue is not None and not self._should_continue():
            self._running = False
            return
        self.epochs += 1
        risk = self._risk_score()
        slack = self._slo_slack()
        self.stance = self._stance(risk, slack)
        self._propose_knobs(self.stance)
        self._update_hints()
        self._schedule_tick()

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _risk_score(self) -> float:
        """Failures this epoch + 2x live suspicions + 2x forecasts."""
        score = 0.0
        if self.metrics is not None:
            failures = len(self.metrics.failures)
            score += failures - self._last_failures
            self._last_failures = failures
        if self.detection is not None:
            score += 2.0 * sum(
                1
                for node in self.cluster.nodes
                if node.alive
                and node.provisioned
                and self.detection.is_suspected(node.node_id)
            )
        if self.predictor is not None:
            score += 2.0 * len(self.predictor.predict_failing(self.sim.now))
        return score

    def _slo_slack(self) -> Optional[float]:
        """Tightest tenant slack ``(deadline - p99) / deadline``, or None."""
        if self.traffic is None:
            return None
        slack: Optional[float] = None
        for name, stats in self.traffic.stats.items():
            tenant = self.traffic._tenants.get(name)
            if tenant is None or tenant.sla is None:
                continue
            deadline = tenant.sla.deadline_s
            p99 = stats.sketch.p99()
            tenant_slack = (deadline - p99) / deadline
            slack = tenant_slack if slack is None else min(slack, tenant_slack)
        return slack

    def _stance(self, risk: float, slack: Optional[float]) -> str:
        if risk >= RISK_PROTECT:
            return "protect"
        if slack is not None and slack < SLO_GUARD:
            return "protect"
        if risk == 0.0 and (slack is None or slack > RELAX_SLACK):
            return "relax"
        return "neutral"

    # ------------------------------------------------------------------
    # Checkpoint interval + replication boost (hysteresis-gated)
    # ------------------------------------------------------------------
    def _propose_knobs(self, stance: str) -> None:
        if stance == "protect":
            proposal: Proposal = (CHECKPOINT_MIN_INTERVAL, REPLICATION_MAX_BOOST)
        elif stance == "relax":
            proposal = (CHECKPOINT_MAX_INTERVAL, 0)
        else:
            proposal = (None, 0)
        if proposal == self._pending:
            self._pending_streak += 1
        else:
            self._pending = proposal
            self._pending_streak = 1
        if (
            self._pending_streak >= HYSTERESIS_EPOCHS
            and proposal != self._applied
        ):
            self._apply_knobs(proposal)

    def _apply_knobs(self, proposal: Proposal) -> None:
        interval, boost = proposal
        if self.checkpointer is not None and interval != self._applied[0]:
            self.checkpointer.global_interval = interval
            self.interval_changes += 1
            self.tracer.instant(
                "adaptive", f"interval:{interval}", interval=interval
            )
        if self.replication is not None and boost != self._applied[1]:
            self.replication.set_target_boost(boost)
            self.boost_changes += 1
            self.tracer.instant("adaptive", f"boost:{boost}", boost=boost)
        self._applied = proposal

    # ------------------------------------------------------------------
    # Placement-avoidance hints
    # ------------------------------------------------------------------
    def _update_hints(self) -> None:
        if self.placement is None:
            return
        eligible = [
            n for n in self.cluster.nodes if n.alive and n.provisioned
        ]
        hinted: list[str] = []
        for node in eligible:
            pressure = (
                self.network.node_pressure(node.node_id)
                if self.network is not None
                else 0
            )
            if pressure >= PRESSURE_THRESHOLD:
                streak = self._pressure_streak.get(node.node_id, 0) + 1
            else:
                streak = 0
            self._pressure_streak[node.node_id] = streak
            suspicion = (
                self.detection.suspicion_score(node.node_id)
                if self.detection is not None
                else 0.0
            )
            if (
                streak >= HYSTERESIS_EPOCHS
                or suspicion >= SUSPICION_HINT_SCORE
            ):
                hinted.append(node.node_id)
        cap = int(MAX_HINTED_FRACTION * len(eligible))
        if len(hinted) > cap:
            # Keep the most-suspect nodes hinted; deterministic order.
            def badness(node_id: str) -> tuple:
                suspicion = (
                    self.detection.suspicion_score(node_id)
                    if self.detection is not None
                    else 0.0
                )
                return (-suspicion, -self._pressure_streak.get(node_id, 0), node_id)

            hinted = sorted(hinted, key=badness)[:cap]
        hints = frozenset(hinted)
        if hints != self._hinted:
            self._hinted = hints
            self.placement.set_hints(hints)
            self.hint_changes += 1
            self.tracer.instant(
                "adaptive", f"hints:{len(hints)}", hinted=sorted(hints)
            )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Summary fields (merged into :class:`RunSummary`)."""
        return {
            "adaptive_epochs": self.epochs,
            "adaptive_interval_changes": self.interval_changes,
            "adaptive_boost_changes": self.boost_changes,
            "adaptive_hint_changes": self.hint_changes,
        }
