"""The FaaS controller: container placement, queueing, node-failure fanout.

Mirrors the OpenWhisk controller/invoker split: the controller picks a node
for each container request (respecting placement preferences and
anti-affinity), delegates the cold start to that node's invoker, and queues
requests that no node can currently host.  Listeners (the Canary Core
Module, the failure injector, metrics) subscribe to container loss events.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from typing import TYPE_CHECKING

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.common.types import ContainerState, RuntimeKind
from repro.detection import backoff as backoff_schedule
from repro.faas.container import Container, ContainerPurpose
from repro.faas.invoker import Invoker
from repro.faas.limits import PlatformLimits
from repro.faas.runtimes import RuntimeRegistry
from repro.policies.base import PlacementPolicy
from repro.policies.builtin import LocalityPolicy
from repro.sim.engine import Simulator
from repro.trace.tracer import NULL_TRACER, NullTracer, Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.detection.backoff import BackoffPolicy
    from repro.network.fabric import FlowNetwork

#: Parked warm containers (``reuse_containers``) are reclaimed after idling
#: this long; they hold node slots and bill while parked.
REUSE_IDLE_TIMEOUT_S = 60.0


@dataclass(eq=False)
class ContainerRequest:
    """A pending request for a container.

    ``on_ready`` fires once the container finishes its cold start.  The
    request may wait in the controller queue while the cluster is full.
    Requests compare by identity: each carries its own ``on_ready``
    closure, so two distinct requests were never value-equal anyway.
    """

    kind: RuntimeKind
    purpose: ContainerPurpose
    on_ready: Callable[[Container], None]
    memory_bytes: Optional[float] = None
    preferred_node: Optional[str] = None
    avoid_nodes: frozenset[str] = frozenset()
    warm: bool = False
    cancelled: bool = False
    container: Optional[Container] = None
    #: invoked as soon as the container object exists (cold start still
    #: pending) so owners can subscribe to loss events during launch
    on_placed: Optional[Callable[[Container], None]] = None
    #: open "queue" span while the request waits in the controller queue
    queue_span: Optional[Span] = None
    #: True exactly while the request sits in the controller queue; set
    #: only where ``submit`` appends it and cleared only where
    #: ``_drain_queue`` pops it, so membership tests are O(1).
    queued: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class FaaSController:
    """Places containers on invoker nodes and manages the pending queue."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        runtimes: Optional[RuntimeRegistry] = None,
        limits: Optional[PlatformLimits] = None,
        *,
        start_rate_limit: Optional[float] = None,
        reuse_containers: bool = False,
        network: Optional["FlowNetwork"] = None,
        tracer: Optional[NullTracer] = None,
        backoff: Optional["BackoffPolicy"] = None,
        policy: Optional[PlacementPolicy] = None,
    ) -> None:
        """
        Args:
            network: Flow-level fabric; when set, cold-start image pulls
                compete for registry/fabric bandwidth instead of being
                folded into the fixed launch time.
            policy: Placement policy ranking the filtered hosting
                candidates for each cold start (S39).  ``None`` keeps the
                default locality ranking — byte-identical to the
                pre-policy controller.
            backoff: Retry policy for queued placement requests; each
                queued request re-drives the queue on a jittered
                exponential schedule (models controller retry loops
                against a starved or cordoned cluster).  ``None`` keeps
                the legacy purely event-driven drain.
            start_rate_limit: Max container starts per second across the
                platform (models the controller/scheduler bottleneck of
                OpenWhisk-class deployments, where the shared controller —
                not node capacity — can gate large batches).  ``None``
                disables the limiter.
            reuse_containers: Keep completed function containers warm and
                hand them to subsequent invocations of the same runtime,
                skipping the cold start (OpenWhisk's warm-start behaviour;
                the cold-start amortization the paper defers in §V-A).
                Parked containers are reclaimed after ``REUSE_IDLE_TIMEOUT_S``.
        """
        if start_rate_limit is not None and start_rate_limit <= 0:
            raise ValueError("start_rate_limit must be positive or None")
        self.sim = sim
        self.cluster = cluster
        self.runtimes = runtimes or RuntimeRegistry()
        self.limits = limits or PlatformLimits()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.invokers: dict[str, Invoker] = {
            node.node_id: Invoker(
                sim,
                node,
                network=network,
                tracer=self.tracer,
            )
            for node in cluster.nodes
        }
        # S39 placement policy: ranks the filtered candidates at both
        # decision points (cold starts here, replicas at the placer).
        self.policy = policy if policy is not None else LocalityPolicy()
        #: Every container ever created (cost accounting reads it once at
        #: the end); the per-submission queries read counters instead.
        self.containers: dict[str, Container] = {}
        self._queue: collections.deque[ContainerRequest] = collections.deque()
        self._id_counter = itertools.count()
        self.start_rate_limit = start_rate_limit
        self._next_start_at = 0.0
        self._throttle_pending = False
        self.reuse_containers = reuse_containers
        self._reuse_pool: dict[RuntimeKind, collections.deque[Container]] = (
            collections.defaultdict(collections.deque)
        )
        self.warm_starts = 0
        # Incremental concurrency accounting.  ``_active_fn_count`` is the
        # number of FUNCTION containers that are non-terminal and not
        # parked warm — exactly what the scan-based count used to compute,
        # but O(1) per query (the validator asks on every submission, which
        # at open-loop traffic rates is 10^5 times per run).
        self._active_fn_count = 0
        # kind -> node_id -> non-terminal FUNCTION containers there; feeds
        # replica co-location placement without scanning the live set.
        self._fn_node_count: dict[RuntimeKind, collections.Counter] = (
            collections.defaultdict(collections.Counter)
        )
        self._loss_listeners: list[Callable[[Container, str], None]] = []
        # Run before any per-container loss fanout on a node failure —
        # bookkeeping that must observe the death atomically (e.g. the
        # runtime manager's warm-idle replica tally) hooks in here.
        self._node_failure_pre_listeners: list[Callable[[Node], None]] = []
        cluster.on_node_failure(self._handle_node_failure)
        self.backoff = backoff
        self._backoff_rng = None  # created lazily; default runs draw nothing
        # statistics
        self.backoff_retries = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_function_count(self) -> int:
        """Concurrent *invocations*: running function containers, excluding
        warm parked ones awaiting reuse.  Maintained incrementally."""
        return self._active_fn_count

    def function_hosting_nodes(self, kind: RuntimeKind) -> list[Node]:
        """Nodes holding at least one non-terminal FUNCTION container of
        *kind* (replica co-location input; membership-equal to scanning
        ``all_containers()`` but O(nodes), not O(containers))."""
        return [
            self.cluster.node(node_id)
            for node_id in self._fn_node_count.get(kind, ())
        ]

    def _note_fn_terminal(self, container: Container) -> None:
        """Bookkeeping before a FUNCTION container goes terminal.

        Must run while the container still shows its pre-terminal state:
        a parked warm container already left the active count when it was
        parked, so only non-parked ones decrement it here.
        """
        if container.purpose != ContainerPurpose.FUNCTION:
            return
        counts = self._fn_node_count[container.kind]
        node_id = container.node.node_id
        counts[node_id] -= 1
        if counts[node_id] <= 0:
            del counts[node_id]
        parked = (
            container.state == ContainerState.WARM
            and container.current_function is None
        )
        if not parked:
            self._active_fn_count -= 1

    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _pick_node(self, request: ContainerRequest, memory: float) -> Optional[Node]:
        if request.preferred_node is not None:
            node = self.cluster.node(request.preferred_node)
            if node.can_host(memory) and node.node_id not in request.avoid_nodes:
                return node
        hosting = self.cluster.hosting_candidates(memory)
        candidates = [n for n in hosting if n.node_id not in request.avoid_nodes]
        if not candidates:
            # Fall back to ignoring anti-affinity rather than starving.
            candidates = hosting
        if not candidates:
            return None
        # Filtering (preferred node, anti-affinity, capacity, fallback)
        # stays here — it is platform machinery every policy must honor;
        # only the final ranking is the policy's call.  Adaptive avoidance
        # hints filter softly first (no-op while the hint set is empty).
        return self.policy.select_node(self.policy.apply_hints(candidates))

    def submit(self, request: ContainerRequest) -> ContainerRequest:
        """Place *request* now if possible, else queue it FIFO."""
        if not self._try_place(request):
            request.queue_span = self.tracer.begin(
                "queue",
                f"queue:{request.kind.value}",
                runtime=request.kind.value,
                purpose=request.purpose.value,
            )
            self._queue.append(request)
            request.queued = True
            if self.backoff is not None:
                self._arm_place_backoff(request, 0)
        return request

    def _arm_place_backoff(self, request: ContainerRequest, retries: int) -> None:
        """Retry a queued request on the backoff schedule.

        The event-driven drain (on terminations and node failures) still
        runs; these timers add the polling retries a real controller makes
        while the cluster is starved — e.g. every node cordoned by the
        suspicion detector — and give chaos runs a bounded re-drive cadence.
        """
        assert self.backoff is not None
        if retries >= backoff_schedule.MAX_ATTEMPTS:
            return
        if self._backoff_rng is None:
            self._backoff_rng = self.sim.rng.stream("chaos:place-backoff")
        wait = self.backoff.delay(retries, float(self._backoff_rng.uniform()))
        self.tracer.instant(
            "backoff",
            f"backoff:place:{request.kind.value}",
            duration=wait,
            purpose=request.purpose.value,
            retry=retries,
        )

        def _retry() -> None:
            # A placed request has left the queue, so ``queued`` also
            # rules out one that already holds a container.
            if request.cancelled or not request.queued:
                return
            self.backoff_retries += 1
            self._drain_queue()
            if request.queued and not request.cancelled:
                self._arm_place_backoff(request, retries + 1)

        self.sim.call_in(wait, _retry, label="place-backoff")

    def _end_queue_span(self, request: ContainerRequest, outcome: str) -> None:
        if request.queue_span is not None:
            self.tracer.finish(request.queue_span, outcome=outcome)
            request.queue_span = None

    # ------------------------------------------------------------------
    # Start-rate limiting (controller bottleneck model)
    # ------------------------------------------------------------------
    def _rate_gate_open(self) -> bool:
        if self.start_rate_limit is None:
            return True
        return self.sim.now >= self._next_start_at

    def _note_start(self) -> None:
        if self.start_rate_limit is None:
            return
        self._next_start_at = (
            max(self._next_start_at, self.sim.now) + 1.0 / self.start_rate_limit
        )

    def _schedule_throttled_drain(self) -> None:
        if self._throttle_pending or self.start_rate_limit is None:
            return
        self._throttle_pending = True

        def _drain() -> None:
            self._throttle_pending = False
            self._drain_queue()

        self.sim.call_at(
            max(self._next_start_at, self.sim.now),
            _drain,
            label="controller-throttle",
        )

    # ------------------------------------------------------------------
    # Warm-start reuse pool
    # ------------------------------------------------------------------
    def _try_reuse(self, request: ContainerRequest, memory: float) -> bool:
        """Serve *request* from a parked warm container when possible."""
        if not self.reuse_containers or request.warm:
            return False
        if request.purpose != ContainerPurpose.FUNCTION:
            return False
        pool = self._reuse_pool[request.kind]
        while pool:
            container = pool.popleft()
            if (
                container.terminal
                or not container.node.alive
                or container.memory_bytes < memory
                or container.node.node_id in request.avoid_nodes
            ):
                continue
            request.container = container
            self._end_queue_span(request, "warm-reuse")
            self.warm_starts += 1
            self._active_fn_count += 1
            # WARM -> RUNNING without a cold start; the execution binds the
            # function id when it begins its attempt.
            container.state = ContainerState.RUNNING
            container.current_function = None
            if request.on_placed is not None:
                request.on_placed(container)
            request.on_ready(container)
            return True
        return False

    def _park_for_reuse(self, container: Container) -> None:
        """Return a completed function container to the warm pool."""
        container.state = ContainerState.WARM
        container.current_function = None
        self._active_fn_count -= 1
        self._reuse_pool[container.kind].append(container)

        def _reclaim() -> None:
            # Still idle in the pool after the timeout? Tear it down.
            if container.is_warm_idle:
                pool = self._reuse_pool[container.kind]
                if container in pool:
                    pool.remove(container)
                    self._note_fn_terminal(container)
                    container.terminate(self.sim.now, ContainerState.KILLED)
                    self._drain_queue()

        self.sim.call_in(REUSE_IDLE_TIMEOUT_S, _reclaim, label="reuse-reclaim")

    def _try_place(self, request: ContainerRequest) -> bool:
        if request.cancelled:
            self._end_queue_span(request, "cancelled")
            return True  # drop silently
        runtime = self.runtimes.get(request.kind)
        memory = (
            request.memory_bytes
            if request.memory_bytes is not None
            else runtime.memory_bytes
        )
        # Warm starts reuse an existing container: no scheduler work, no
        # rate-limit charge.
        if self._try_reuse(request, memory):
            return True
        if not self._rate_gate_open():
            self._schedule_throttled_drain()
            return False
        node = self._pick_node(request, memory)
        if node is None:
            return False
        container = Container(
            container_id=f"ctr-{next(self._id_counter):06d}",
            runtime=runtime,
            node=node,
            purpose=request.purpose,
            memory_bytes=memory,
            created_at=self.sim.now,
        )
        node.attach(container)
        self.containers[container.container_id] = container
        if container.purpose == ContainerPurpose.FUNCTION:
            self._active_fn_count += 1
            self._fn_node_count[container.kind][node.node_id] += 1
        request.container = container
        self._end_queue_span(request, "placed")
        if request.on_placed is not None:
            request.on_placed(container)

        def _ready(c: Container) -> None:
            if not request.cancelled:
                request.on_ready(c)

        self.invokers[node.node_id].cold_start(
            container, _ready, warm=request.warm
        )
        self._note_start()
        return True

    def kick(self) -> None:
        """Re-drive the queue after external capacity changes.

        Called when the suspicion detector reinstates a cordoned node —
        queued requests may now have a home again.
        """
        self._drain_queue()

    def _drain_queue(self) -> None:
        """Retry queued requests in FIFO order until one fails to place."""
        while self._queue:
            request = self._queue[0]
            if request.cancelled:
                self._end_queue_span(request, "cancelled")
                self._queue.popleft().queued = False
                continue
            if not self._try_place(request):
                return
            self._queue.popleft().queued = False

    # ------------------------------------------------------------------
    # Termination & failure
    # ------------------------------------------------------------------
    def terminate(self, container: Container, state: ContainerState) -> None:
        """Tear down *container*; frees capacity and drains the queue.

        With container reuse enabled, successfully completed function
        containers are parked warm instead of destroyed.
        """
        if container.terminal:
            return
        if (
            self.reuse_containers
            and state is ContainerState.COMPLETED
            and container.purpose == ContainerPurpose.FUNCTION
            and container.node.alive
        ):
            self._park_for_reuse(container)
            self._drain_queue()
            return
        invoker = self.invokers[container.node.node_id]
        invoker.abort_cold_start(container)
        self._note_fn_terminal(container)
        container.terminate(self.sim.now, state)
        self._drain_queue()

    def on_container_loss(
        self, listener: Callable[[Container, str], None]
    ) -> None:
        """Register ``listener(container, reason)`` for involuntary losses."""
        self._loss_listeners.append(listener)

    def kill_container(self, container: Container, reason: str) -> None:
        """Involuntary kill (failure injection): terminate then notify."""
        if container.terminal:
            return
        self.terminate(container, ContainerState.FAILED)
        for listener in self._loss_listeners:
            listener(container, reason)

    def on_node_failure_begin(self, listener: Callable[[Node], None]) -> None:
        """Register a callback run at the top of the node-failure fanout."""
        self._node_failure_pre_listeners.append(listener)

    def _handle_node_failure(self, node: Node, lost: list[Container]) -> None:
        for pre_listener in self._node_failure_pre_listeners:
            pre_listener(node)
        self.invokers[node.node_id].on_node_failure()
        for container in lost:
            if container.terminal:
                continue
            self._note_fn_terminal(container)
            container.state = ContainerState.FAILED
            container.terminated_at = self.sim.now
            for listener in self._loss_listeners:
                listener(container, f"node-failure:{node.node_id}")
        self._drain_queue()

    # ------------------------------------------------------------------
    # Cost accounting feed
    # ------------------------------------------------------------------
    def all_containers(self) -> Iterable[Container]:
        return self.containers.values()
