"""Container-kill and node-failure injection.

Error-rate semantics match §V-B: the *error rate* is the percentage of a
job's functions that fail.  Victims are sampled without replacement and each
victim's first attempt is killed at a uniformly random point of its
execution window.  Secondary containers (request-replication siblings,
active-standby standbys) of victim functions are additionally killed with
probability equal to the error rate — this is what makes RR/AS degrade at
high error rates ("the probability of active, standby, and replicas
functions being killed at the same time increases", §V-D-5).

Node-level failures (Fig. 11) pick victims weighted by hardware age and kill
every container on the node at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cluster.cluster import Cluster
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.jobs import Job


@dataclass
class FailurePlan:
    """Per-job victim assignment."""

    job_id: str
    error_rate: float
    victims: frozenset[str]           # function_ids whose first attempt dies
    kill_fractions: dict[str, float]  # function_id -> u in (0, 1)


class FailureInjector:
    """Deterministic failure source for one experiment run.

    Args:
        sim: Engine (provides the named RNG streams and the clock).
        error_rate: Fraction of each job's functions that fail.
        refailure_rate: Probability that a *recovery* attempt fails again
            (0 reproduces the paper's one-failure-per-victim setup).
        secondary_kill_rate: Probability that a secondary container (RR
            sibling / AS standby) of a victim function is also killed;
            ``None`` defaults to ``error_rate``.
        node_failure_count: Node-level failures to schedule.
        node_failure_window: (start, end) virtual-time window for them.
        node_failure_precursors: Transient container faults emitted on the
            doomed node shortly *before* it dies — the monitoring signal
            failure predictors key on (real node deaths are typically
            preceded by correctable-error storms and process crashes).
        precursor_spacing_s: Gap between consecutive precursor faults.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        error_rate: float = 0.0,
        refailure_rate: float = 0.0,
        secondary_kill_rate: Optional[float] = None,
        node_failure_count: int = 0,
        node_failure_window: tuple[float, float] = (0.0, 0.0),
        node_failure_precursors: int = 0,
        precursor_spacing_s: float = 2.0,
        kill_fraction_bounds: tuple[float, float] = (0.02, 0.98),
    ) -> None:
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must be within [0, 1]")
        if not 0.0 <= refailure_rate <= 1.0:
            raise ValueError("refailure_rate must be within [0, 1]")
        lo, hi = kill_fraction_bounds
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("kill_fraction_bounds must satisfy 0 <= lo < hi <= 1")
        self.sim = sim
        self.error_rate = error_rate
        self.refailure_rate = refailure_rate
        self.secondary_kill_rate = (
            secondary_kill_rate if secondary_kill_rate is not None else error_rate
        )
        if node_failure_precursors < 0:
            raise ValueError("node_failure_precursors must be non-negative")
        if precursor_spacing_s <= 0:
            raise ValueError("precursor_spacing_s must be positive")
        if node_failure_count > 0:
            start, end = node_failure_window
            if end <= start:
                raise ValueError(
                    "node_failure_window must be a non-empty (start, end) "
                    "range"
                )
        self.node_failure_count = node_failure_count
        self.node_failure_window = node_failure_window
        self.node_failure_precursors = node_failure_precursors
        self.precursor_spacing_s = precursor_spacing_s
        self.kill_fraction_bounds = kill_fraction_bounds
        self._plans: dict[str, FailurePlan] = {}
        self._rng = sim.rng.stream("faults")
        self.node_kills_injected = 0
        #: Times a node failure had to re-pick its victim because the one
        #: drawn up front was already dead when the failure fired.
        self.victim_repicks = 0
        #: ``(time, node_id)`` for every node failure actually delivered.
        self.scheduled_node_failures: list[tuple[float, str]] = []

    # ------------------------------------------------------------------
    # Victim assignment
    # ------------------------------------------------------------------
    def victim_count(self, num_functions: int) -> int:
        """Number of victims implied by the error rate (at least 1 when
        the rate is non-zero, matching 1 % of 100 invocations = 1)."""
        if self.error_rate <= 0 or num_functions <= 0:
            return 0
        exact = self.error_rate * num_functions
        count = int(round(exact))
        if count == 0:
            count = 1
        return min(count, num_functions)

    def register_job(self, job: "Job") -> FailurePlan:
        """Sample victims and kill points for a newly admitted job."""
        function_ids = [e.function_id for e in job.executions]
        count = self.victim_count(len(function_ids))
        if count:
            picks = self._rng.choice(len(function_ids), size=count, replace=False)
            victims = frozenset(function_ids[int(i)] for i in picks)
        else:
            victims = frozenset()
        lo, hi = self.kill_fraction_bounds
        fractions = {
            fid: float(self._rng.uniform(lo, hi)) for fid in sorted(victims)
        }
        plan = FailurePlan(
            job_id=job.job_id,
            error_rate=self.error_rate,
            victims=victims,
            kill_fractions=fractions,
        )
        self._plans[job.job_id] = plan
        return plan

    def plan_for(self, job_id: str) -> Optional[FailurePlan]:
        return self._plans.get(job_id)

    # ------------------------------------------------------------------
    # Per-attempt decisions (queried by FunctionExecution)
    # ------------------------------------------------------------------
    def attempt_kill_fraction(
        self,
        *,
        job_id: str,
        function_id: str,
        attempt_index: int,
        secondary: bool = False,
    ) -> Optional[float]:
        """Fraction of the attempt's window at which to kill it, or None.

        * primary first attempt of a victim → the pre-drawn fraction;
        * secondary containers of a victim → killed with
          ``secondary_kill_rate``;
        * recovery attempts → killed with ``refailure_rate``.
        """
        plan = self._plans.get(job_id)
        if plan is None or function_id not in plan.victims:
            return None
        lo, hi = self.kill_fraction_bounds
        if secondary:
            if self._rng.uniform() < self.secondary_kill_rate:
                return float(self._rng.uniform(lo, hi))
            return None
        if attempt_index == 0:
            return plan.kill_fractions[function_id]
        if self.refailure_rate > 0 and self._rng.uniform() < self.refailure_rate:
            return float(self._rng.uniform(lo, hi))
        return None

    # ------------------------------------------------------------------
    # Node-level failures
    # ------------------------------------------------------------------
    def schedule_node_failures(
        self, cluster: Cluster, controller=None
    ) -> list[float]:
        """Schedule the configured node failures; return their times.

        Victims are drawn up front (weighted by hardware age, distinct
        across the scheduled failures) so that precursor faults can target
        the doomed node.  When ``node_failure_precursors > 0`` and a
        *controller* is supplied, the victim emits that many container
        faults in the run-up to its death.  If a victim is dead by the time
        its failure fires (e.g. a chaos hard-kill got there first), a
        replacement is re-picked and *shared with the precursor closures*
        so the monitoring signal keeps pointing at the node that actually
        dies; re-picks are counted in :attr:`victim_repicks`.
        """
        if self.node_failure_count <= 0:
            return []
        start, end = self.node_failure_window
        times = sorted(
            float(self._rng.uniform(start, end))
            for _ in range(self.node_failure_count)
        )
        doomed: set[str] = set()
        for at in times:
            victim = cluster.pick_failure_victim(
                self._rng, exclude=frozenset(doomed)
            )
            if victim is None and doomed:
                # More failures than alive nodes: allow repeat victims
                # rather than silently dropping the failure.
                victim = cluster.pick_failure_victim(self._rng)
            if victim is None:
                continue
            doomed.add(victim.node_id)
            # One mutable cell per failure, shared between the failure
            # event and its precursors, so a re-pick retargets both.
            target = {"node": victim}

            def _fail(at: float = at, target: dict = target) -> None:
                node = target["node"]
                if not node.alive:
                    node = cluster.pick_failure_victim(self._rng)
                    if node is None:
                        return
                    self.victim_repicks += 1
                    target["node"] = node
                self.node_kills_injected += 1
                self.scheduled_node_failures.append((at, node.node_id))
                cluster.fail_node(node.node_id, at)

            self.sim.call_at(max(at, self.sim.now), _fail, label="node-failure")
            if controller is not None and self.node_failure_precursors > 0:
                self._schedule_precursors(controller, target, at)
        return times

    def _schedule_precursors(
        self, controller, target: dict, failure_at: float
    ) -> None:
        """Emit transient container faults on the doomed node before death."""
        for k in range(self.node_failure_precursors):
            at = failure_at - (k + 1) * self.precursor_spacing_s
            if at <= self.sim.now:
                continue

            def _precursor(target: dict = target) -> None:
                victim = target["node"]
                if not victim.alive:
                    return
                live = [
                    c for c in victim.containers.values() if not c.terminal
                ]
                if not live:
                    return
                container = live[int(self._rng.integers(len(live)))]
                controller.kill_container(container, "precursor")

            self.sim.call_at(at, _precursor, label="precursor")
