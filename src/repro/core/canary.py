"""CanaryPlatform: assembles the full simulated platform.

One :class:`CanaryPlatform` instance = one experiment run: a seeded engine,
a cluster, the FaaS controller, storage, the Canary modules, a recovery
strategy, and a failure injector.  ``submit_job`` + ``run`` + ``summary``
is the whole lifecycle the experiment harness drives.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.checkpoint.module import CheckpointingModule
from repro.cluster.cluster import Cluster
from repro.cluster.heterogeneity import HeterogeneityModel
from repro.common.errors import RequestValidationError
from repro.common.types import JobState, ReplicationStrategyName
from repro.core.database import CanaryDatabase
from repro.core.execution import Attempt, FunctionExecution
from repro.core.ids import IdGenerator
from repro.core.jobs import Job, JobRequest
from repro.core.scenario import ScenarioConfig
from repro.core.validator import RequestValidator, ValidationResult
from repro.cost.pricing import compute_cost
from repro.detection import DetectionModule
from repro.faas.controller import FaaSController
from repro.faas.runtimes import RuntimeRegistry
from repro.faults.chaos import ChaosInjector
from repro.faults.injector import FailureInjector
from repro.metrics.collector import MetricsCollector
from repro.metrics.network import collect_network_stats
from repro.metrics.summary import RunSummary
from repro.network.fabric import FlowNetwork
from repro.policies.factory import PLACEMENT_POLICIES
from repro.replication.estimator import FailureRateEstimator
from repro.replication.module import ReplicationModule
from repro.replication.placement import ReplicaPlacer
from repro.replication.strategies import make_replication_strategy
from repro.runtime_manager.manager import RuntimeManagerModule
from repro.sim.engine import Simulator
from repro.storage.kvstore import KeyValueStore
from repro.storage.router import CheckpointStorageRouter
from repro.storage.tiers import TierRegistry
from repro.strategies.factory import make_strategy
from repro.trace.tracer import NULL_TRACER, NullTracer
from repro.workloads.profiles import get_workload

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.controller import AdaptiveController
    from repro.autoscale.autoscaler import NodeAutoscaler
    from repro.traffic.replay import TrafficSource


def _node_failure_window(scenario: ScenarioConfig) -> tuple[float, float]:
    """The scenario's node-failure window; ``(0, 0)`` means the batch
    workload's expected busy period."""
    if (
        scenario.node_failure_count == 0
        or scenario.node_failure_window != (0.0, 0.0)
    ):
        return scenario.node_failure_window
    # Rough makespan estimate: cold start + execution (+ retry slack).
    horizon = 20.0 + get_workload(scenario.workload).mean_exec_s * 1.5
    return (5.0, max(horizon, 30.0))


class CanaryPlatform:
    """A fully wired simulated FaaS platform with a recovery strategy.

    Every setting comes from *scenario*; *seed* pins failures, jitter and
    placement ties, and *tracer* records spans (None records nothing).
    """

    def __init__(
        self,
        scenario: ScenarioConfig,
        *,
        seed: int = 0,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.pricing = scenario.pricing
        # Autoscaling works against a *fixed* node universe: the cluster
        # is built at max_nodes so the fabric topology and detection never
        # see membership churn; spare nodes start deprovisioned (invisible
        # to placement) and the autoscaler flips Node.provisioned as
        # capacity scales.
        autoscale = scenario.autoscale
        cluster_nodes = initial_provisioned = scenario.num_nodes
        if autoscale is not None:
            cluster_nodes = max(autoscale.max_nodes, 1)
            initial_provisioned = min(
                max(scenario.num_nodes, autoscale.min_nodes),
                autoscale.max_nodes,
            )
        self.sim = Simulator(seed=seed)
        # Span recorder threaded through every instrumented subsystem; the
        # null default records nothing and reads no clock.  A real Tracer
        # built without a clock gets bound to the virtual clock here.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.set_clock(lambda: self.sim.now)
        self.cluster = Cluster(
            cluster_nodes,
            heterogeneity=HeterogeneityModel(
                scenario.heterogeneity_profiles,
                rng=self.sim.rng.stream("heterogeneity"),
            ),
        )
        for node in self.cluster.nodes[initial_provisioned:]:
            node.provisioned = False
        self.database = CanaryDatabase(
            worker_rows=self._worker_rows,
            job_rows=self._job_rows,
            function_rows=self._function_rows,
            checkpoint_rows=lambda: self.checkpointer.rows(),
            replication_rows=lambda: self.runtime_manager.rows(),
        )
        self.ids = IdGenerator()
        self.kv = KeyValueStore()
        self.tiers = TierRegistry()
        # The flow-level fabric (None = legacy uncontended transfers).
        # Its failure listener registers before the controller's, so a
        # dying node's flows are torn down before loss recovery starts.
        network = scenario.network
        self.network: Optional[FlowNetwork] = None
        if network is not None:
            self.network = FlowNetwork(
                self.sim,
                cluster=self.cluster,
                tiers=self.tiers,
                config=network,
                tracer=self.tracer,
            )
            self.cluster.on_node_failure(
                lambda node, lost: self.network.fail_endpoint(node.node_id)
            )
        # Emergent failure detection (heartbeats feeding a phi-accrual
        # suspicion detector).  None keeps the constant-delay oracle used
        # by ``RecoveryStrategy.after_detection``.  Its constructor
        # schedules nothing, and its failure listener only puts a dead
        # node's folded beats back on events; it reaches the controller
        # only through the late-bound ``on_reinstate`` lambda, so it is
        # built first and handed to the placement policy.
        self.detection: Optional[DetectionModule] = None
        if scenario.detection is not None:
            self.detection = DetectionModule(
                self.sim,
                self.cluster,
                tracer=self.tracer,
                on_reinstate=lambda node: self.controller.kick(),
            )
        # One S39 policy object serves both placement decision points
        # (cold starts at the controller, replicas at the placer).
        self.placement = PLACEMENT_POLICIES[scenario.placement](
            network=self.network, detection=self.detection
        )
        self.controller = FaaSController(
            self.sim,
            self.cluster,
            RuntimeRegistry(),
            scenario.limits,
            start_rate_limit=scenario.start_rate_limit,
            reuse_containers=scenario.reuse_containers,
            network=self.network,
            backoff=scenario.backoff,
            tracer=self.tracer,
            policy=self.placement,
        )
        # Node autoscaler: scales Node.provisioned between the configured
        # bounds; detection coverage follows via watch/retire.
        self.autoscaler: Optional["NodeAutoscaler"] = None
        if autoscale is not None:
            from repro.autoscale.autoscaler import NodeAutoscaler

            self.autoscaler = NodeAutoscaler(
                self.sim,
                self.cluster,
                self.controller,
                autoscale,
                network=self.network,
                detection=self.detection,
                extra_backlog=lambda: len(self._pending_jobs),
                tracer=self.tracer,
            )
        # Under node failures, checkpoint spills must land on shared tiers
        # to survive their node.
        self.router = CheckpointStorageRouter(
            self.kv,
            self.tiers,
            require_shared_spill=scenario.node_failure_count > 0,
        )
        self.checkpointer = CheckpointingModule(
            self.router,
            self.ids,
            policy=scenario.checkpoint_policy,
            flush_lag_s=scenario.checkpoint_flush_lag_s,
            tracer=self.tracer,
        )
        #: Attempts running a folded segment, with their executions
        #: (see ``FunctionExecution._fold``), in fold order.
        self.folded: dict[Attempt, FunctionExecution] = {}
        self.checkpointer.on_cadence_change = (
            lambda function_id: self.unfold(function_id=function_id)
        )
        self.runtime_manager = RuntimeManagerModule()
        self.metrics = MetricsCollector()
        # Recovery attempts re-fail at the error rate by default: the error
        # process does not pause just because a function is on its second
        # try (this is what makes retry diverge at high error rates, Fig. 7).
        error_rate = scenario.error_rate
        refailure_rate = scenario.refailure_rate
        self.injector = FailureInjector(
            self.sim,
            error_rate=error_rate,
            refailure_rate=(
                refailure_rate if refailure_rate is not None else error_rate
            ),
            node_failure_count=scenario.node_failure_count,
            node_failure_window=_node_failure_window(scenario),
            node_failure_precursors=scenario.node_failure_precursors,
        )
        self.validator = RequestValidator(self.controller.limits)
        #: container_id -> owning execution, for dispatching loss events of
        #: function-purpose containers (replicas are handled by the
        #: Replication Module, standbys by the active-standby strategy).
        self.container_owners: dict[str, FunctionExecution] = {}
        # Chaos archetypes (stragglers / zombies / partitions / brownouts);
        # created only when at least one archetype is enabled so disabled
        # runs stay byte-identical to the pre-chaos platform.
        chaos = scenario.chaos
        self.chaos: Optional[ChaosInjector] = None
        if chaos is not None and chaos.enabled:
            self.chaos = ChaosInjector(self, chaos)
            if self.detection is not None:
                self.detection.chaos = self.chaos
        self.strategy = make_strategy(scenario.strategy, self)
        self.replication: Optional[ReplicationModule] = None
        if self.strategy.replication_enabled:
            self.replication = ReplicationModule(
                self.sim,
                self.controller,
                self.runtime_manager,
                ReplicaPlacer(self.cluster, policy=self.placement),
                make_replication_strategy(scenario.replication_strategy),
                self.ids,
                estimator=FailureRateEstimator(),
            )
        self.jobs: dict[str, Job] = {}
        #: Incomplete-job count maintained incrementally: the detection
        #: and autoscaler keep-alives poll for pending work on every beat,
        #: and scanning the ever-growing ``jobs`` dict there would turn
        #: sustained traffic runs quadratic.
        self._open_jobs = 0
        #: FIFO admission queue; deque so each drained job is O(1), not
        #: an O(n) list shift.
        self._pending_jobs: deque[tuple[JobRequest, Optional[object]]] = (
            deque()
        )
        self._job_callbacks: dict[str, object] = {}
        self._node_failures_scheduled = False
        self.controller.on_container_loss(self._dispatch_function_loss)
        self.cluster.on_node_failure(self._on_node_failure)
        # Open-loop traffic: tenant streams are materialized now (stream
        # creation order is part of the determinism contract) and replayed
        # from run().
        self.traffic: Optional["TrafficSource"] = None
        if scenario.traffic is not None:
            from repro.traffic.replay import TrafficSource

            self.traffic = TrafficSource(self, scenario.traffic)
        # Failure prediction & proactive mitigation (§VII future work).
        self.predictor = None
        self.mitigator = None
        if scenario.prediction:
            from repro.prediction.mitigator import ProactiveMitigator
            from repro.prediction.predictor import NodeHealthPredictor

            self.predictor = NodeHealthPredictor(self.cluster)
            self.mitigator = ProactiveMitigator(self, self.predictor)
        # S40 adaptive fault tolerance: built last so it can read every
        # signal source (detection, fabric, predictor, traffic).  None
        # (default) constructs nothing — not even the RNG stream — so
        # non-adaptive runs stay byte-identical.
        self.adaptive: Optional["AdaptiveController"] = None
        if scenario.adaptive is not None:
            from repro.adaptive.controller import AdaptiveController

            self.adaptive = AdaptiveController(
                self.sim,
                self.cluster,
                checkpointer=self.checkpointer,
                replication=self.replication,
                placement=self.placement,
                detection=self.detection,
                network=self.network,
                predictor=self.predictor,
                metrics=self.metrics,
                traffic=self.traffic,
                tracer=self.tracer,
            )

    # ------------------------------------------------------------------
    # Folded attempts
    # ------------------------------------------------------------------
    def _on_node_failure(self, node, lost) -> None:
        # The node's checkpoints must exist before they can be lost.  (The
        # controller's loss fanout has already settled the node's folded
        # attempts; this keeps the order independent of listener order.)
        for attempt, execution in self.folded.items():
            if attempt.container.node is node:
                execution.materialise(attempt, self.sim.now)
        self.checkpointer.on_node_failure(node.node_id, now=self.sim.now)

    def unfold(
        self, *, node=None, function_id: Optional[str] = None
    ) -> None:
        """Put folded attempts back on one event per window: all of them,
        or those on *node* or of *function_id*; with *node*, its folded
        heartbeats too.

        Called just before something a fold plan read changes: a node's
        speed, a tier's brownout state, a checkpoint cadence.
        """
        for attempt, execution in list(self.folded.items()):
            if node is not None and attempt.container.node is not node:
                continue
            if function_id is not None and execution.function_id != function_id:
                continue
            execution.unfold(attempt)
        if node is not None and self.detection is not None:
            self.detection.unfold(node)

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def submit_batch(self) -> None:
        """Submit the scenario's closed-loop batch: ``jobs`` equal jobs of
        ``num_functions`` functions of ``workload`` in total."""
        scenario = self.scenario
        workload = get_workload(scenario.workload)
        for _ in range(scenario.jobs):
            self.submit_job(
                JobRequest(
                    workload=workload,
                    num_functions=scenario.functions_per_job,
                    checkpoint_interval=scenario.checkpoint_interval,
                    replication_strategy=ReplicationStrategyName(
                        scenario.replication_strategy
                    ),
                )
            )

    def submit_job(self, request: JobRequest, *, on_complete=None) -> Optional[Job]:
        """Validate and (if possible) admit a job.

        Returns the admitted :class:`Job`, or ``None`` when the job was
        queued for later admission.  ``on_complete(job)`` fires once every
        function of the job completes (used by workflow triggers).  Raises
        :class:`~repro.common.errors.RequestValidationError` on hard limit
        violations.
        """
        report = self.validator.validate(
            request, self.controller.active_function_count()
        )
        if report.result is ValidationResult.REJECT:
            raise RequestValidationError(report.reason)
        if report.result is ValidationResult.QUEUE:
            self._pending_jobs.append((request, on_complete))
            return None
        return self._admit(request, on_complete)

    def _admit(self, request: JobRequest, on_complete=None) -> Job:
        job = Job(
            job_id=self.ids.job_id(),
            request=request,
            state=JobState.RUNNING,
            submitted_at=self.sim.now,
            started_at=self.sim.now,
        )
        self.jobs[job.job_id] = job
        self._open_jobs += 1
        if on_complete is not None:
            self._job_callbacks[job.job_id] = on_complete
        for index in range(request.num_functions):
            job.executions.append(FunctionExecution(self, job, index))
        self.injector.register_job(job)
        if self.replication is not None:
            self.replication.register_job(job)
        self.strategy.on_job_start(job)
        for execution in job.executions:
            if request.checkpoint_interval != 1:
                self.checkpointer.set_interval(
                    execution.function_id, request.checkpoint_interval
                )
            execution.submit()
        if self.mitigator is not None:
            self.mitigator.start()
        return job

    def function_completed(self, execution: FunctionExecution) -> None:
        """Called by each execution once it completes."""
        job = execution.job
        if job.done and job.completed_at is None:
            job.completed_at = self.sim.now
            job.state = JobState.COMPLETED
            self._open_jobs -= 1
            if self.replication is not None:
                self.replication.complete_job(job)
            self.strategy.on_job_complete(job)
            callback = self._job_callbacks.pop(job.job_id, None)
            if callback is not None:
                callback(job)
        self._drain_pending_jobs()
        self.check_idle()

    def _drain_pending_jobs(self) -> None:
        while self._pending_jobs:
            request, on_complete = self._pending_jobs[0]
            report = self.validator.validate(
                request, self.controller.active_function_count()
            )
            if report.result is not ValidationResult.ADMIT:
                return
            self._pending_jobs.popleft()
            self._admit(request, on_complete)

    # ------------------------------------------------------------------
    # Container ownership and loss dispatch
    # ------------------------------------------------------------------
    def register_owner(
        self, container_id: str, execution: FunctionExecution
    ) -> None:
        self.container_owners[container_id] = execution

    def release_owner(self, container_id: str) -> None:
        self.container_owners.pop(container_id, None)

    def _dispatch_function_loss(self, container, reason: str) -> None:
        # Dispatch by ownership, not container purpose: an adopted replica
        # keeps ContainerPurpose.REPLICA but is owned by an execution, and
        # its loss needs recovery just like a launched function container.
        # Unclaimed replicas are not in container_owners and fall through.
        execution = self.container_owners.get(container.container_id)
        if execution is not None:
            execution.handle_container_loss(container, reason)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation to completion (or *until*)."""
        if (
            not self._node_failures_scheduled
            and self.injector.node_failure_count > 0
        ):
            self.injector.schedule_node_failures(
                self.cluster, controller=self.controller
            )
            self._node_failures_scheduled = True
        if self.chaos is not None:
            self.chaos.schedule()
        if self.traffic is not None:
            self.traffic.start()
        if self.autoscaler is not None:
            self.autoscaler.ensure_running(self._has_pending_work)
        if self.detection is not None:
            self.detection.ensure_running(self._has_pending_work)
        if self.adaptive is not None:
            self.adaptive.ensure_running(self._has_pending_work)
        stopped_at = self.sim.run(until=until)
        # Events at the stop time have fired, so boundaries at it count.
        for attempt, execution in self.folded.items():
            execution.materialise(attempt, stopped_at, inclusive=True)
        if self.detection is not None:
            self.detection.materialise(stopped_at)
        if self.sim.pending == 0:
            # Run fully drained: bound any spans that never closed (e.g.
            # unrecovered failures) so exports see finite intervals.
            self.tracer.close_open(stopped_at, reason="end-of-run")
        return stopped_at

    def _has_pending_work(self) -> bool:
        """Heartbeat keep-alive: beats stop once every job is done."""
        if self._pending_jobs:
            return True
        if self.traffic is not None and self.traffic.pending_arrivals:
            return True
        return self._open_jobs > 0

    def check_idle(self) -> None:
        """Called wherever ``_has_pending_work`` can turn false (a job
        completes, an arrival is the last one): folded heartbeats poll no
        keep-alive, so they go back on events and the first real beat
        stops the monitor at the time it stops stepwise."""
        if self.detection is not None and not self._has_pending_work():
            self.detection.unfold()

    # ------------------------------------------------------------------
    # Database views (§IV-C-1): rows built on read, none written
    # ------------------------------------------------------------------
    def _worker_rows(self):
        for node in self.cluster.nodes:
            profile = node.profile
            yield (
                node.node_id, "invoker", profile.name, profile.memory_bytes,
                profile.container_slots, node.rack, node.alive,
            )

    def _job_rows(self):
        for job in self.jobs.values():
            request = job.request
            yield (
                job.job_id, request.workload.name, request.num_functions,
                request.workload.runtime.value, request.checkpoint_interval,
                request.replication_strategy.value, job.state.value,
                job.submitted_at, job.completed_at,
            )

    def _function_rows(self):
        # Folded attempts' ``completed_states`` are exact whenever ``run``
        # returns: it materialises them.
        for job in self.jobs.values():
            for execution in job.executions:
                attempts = execution.attempts
                yield (
                    execution.function_id, job.job_id,
                    execution.profile.runtime.value,
                    attempts[-1].container.node.node_id if attempts else None,
                    execution.status.value, len(attempts),
                    max((a.completed_states for a in attempts), default=0) - 1,
                )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def invokers_list(self):
        """The per-node invokers (diagnostics: cold-start counters)."""
        return list(self.controller.invokers.values())

    def makespan(self) -> float:
        """Makespan across all jobs (first submission → last completion)."""
        if not self.jobs:
            return 0.0
        start = min(j.submitted_at for j in self.jobs.values())
        ends = [
            j.completed_at for j in self.jobs.values() if j.completed_at is not None
        ]
        if not ends:
            return 0.0
        return max(ends) - start

    def summary(self) -> RunSummary:
        """Aggregate the run into one :class:`RunSummary`.

        Layers that are off leave their fields at the zero defaults.
        """
        jobs = list(self.jobs.values())
        metrics = self.metrics
        cost = compute_cost(
            self.controller.all_containers(), self.sim.now, self.pricing
        )
        layers: dict = {}
        net = collect_network_stats(self.network, self.sim.now)
        if net is not None:
            layers.update(
                network_flows=net.flows_completed,
                network_bytes=net.bytes_total,
                network_contention_s=net.contention_delay_s,
                network_peak_utilization=net.peak_link_utilization,
            )
        degraded_s = metrics.backoff_wait_s
        if self.chaos is not None:
            degraded_s += self.chaos.degraded_seconds()
        if self.detection is not None:
            det = self.detection.stats()
            degraded_s += det.cordoned_s
            layers.update(
                detections=det.detections,
                detection_latency_mean_s=det.detection_latency_mean_s,
                false_suspicions=det.false_suspicions,
            )
        if self.traffic is not None:
            layers.update(self.traffic.totals())
        if self.autoscaler is not None:
            layers.update(
                scale_outs=self.autoscaler.scale_outs,
                scale_ins=self.autoscaler.scale_ins,
                nodes_peak=self.autoscaler.nodes_peak,
            )
        if self.adaptive is not None:
            layers.update(self.adaptive.stats())
        return RunSummary(
            strategy=self.strategy.name.value,
            workload=jobs[0].workload.name if jobs else "",
            error_rate=self.injector.error_rate,
            num_functions=sum(j.num_functions for j in jobs),
            num_nodes=len(self.cluster),
            makespan_s=self.makespan(),
            total_recovery_s=metrics.total_recovery_time(),
            mean_recovery_s=metrics.mean_recovery_time(),
            failures=len(metrics.failures),
            unrecovered=len(metrics.unrecovered_failures()),
            completed=sum(job.completed_count for job in jobs),
            cost_total=cost.total,
            cost_function=cost.function_cost,
            cost_replica=cost.replica_cost,
            cost_standby=cost.standby_cost,
            checkpoints_taken=self.checkpointer.checkpoints_taken,
            checkpoint_time_s=sum(
                execution.checkpoint_time_s
                for job in jobs
                for execution in job.executions
            ),
            replicas_launched=(
                self.replication.replicas_launched
                if self.replication is not None
                else 0
            ),
            seed=self.seed,
            degraded_s=degraded_s,
            **layers,
        )
