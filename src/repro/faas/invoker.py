"""Per-node invoker: drives container cold starts with contention.

Cold-start phases scale with node speed and with the number of cold starts
the node is running concurrently.  The contention multiplier is what makes
the default retry strategy degrade when many failed functions restart at
once ("concurrently restarts all the failed functions which leads to
resource contention and further increases the recovery time", §IV-C-4-c)
and what makes node-failure retry storms expensive (§V-D-6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster.node import Node
from repro.faas.container import Container
from repro.sim.engine import Simulator
from repro.trace.tracer import NULL_TRACER, NullTracer, Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.fabric import FlowNetwork

#: Per extra concurrent cold start on a node, phases stretch by this
#: fraction: launch time × (1 + γ·(k−1)) for k in flight.
CONTENTION_GAMMA = 0.12


class _WedgedHandle:
    """Placeholder pending-ready handle for a wedged (zombie) launch."""

    def cancel(self) -> None:
        pass


_WEDGED_HANDLE = _WedgedHandle()


class Invoker:
    """Drives container lifecycles on one node.

    Args:
        sim: The discrete-event engine.
        node: The node this invoker manages.
        network: Flow-level fabric; when set (and it models image pulls),
            the container image is pulled from the registry service over
            the fabric before the launch/init phases run.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        *,
        network: Optional["FlowNetwork"] = None,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.network = network
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cold_starts_total = 0
        #: Gray-failure mode (zombie node): the invoker accepts cold starts
        #: but never completes them.
        self.wedged = False
        # Handle of the step that will (eventually) make the container
        # ready: an image-pull FlowHandle or the launch+init EventHandle.
        # Both expose ``cancel()``.
        self._pending_ready: dict[str, object] = {}
        # Open "cold_start" span per in-flight launch.
        self._cold_spans: dict[str, Span] = {}

    # ------------------------------------------------------------------
    def _contention_multiplier(self) -> float:
        k = max(1, self.node.cold_starts_in_flight)
        return 1.0 + CONTENTION_GAMMA * (k - 1)

    def cold_start(
        self,
        container: Container,
        on_ready: Callable[[Container], None],
        *,
        warm: bool = False,
    ) -> float:
        """Launch + initialize *container*; invoke *on_ready* when done.

        Returns the projected cold-start duration (the actual ready event is
        scheduled on the engine).  ``warm=True`` parks the container in the
        WARM state (replica / standby pools) instead of RUNNING.
        """
        if not self.node.alive:
            raise RuntimeError(f"node {self.node.node_id} is dead")
        self.node.cold_starts_in_flight += 1
        self.cold_starts_total += 1
        container.mark_launching(self.sim.now)
        self._cold_spans[container.container_id] = self.tracer.begin(
            "cold_start",
            f"cold_start:{container.container_id}",
            node=self.node.node_id,
            container=container.container_id,
            runtime=container.kind.value,
            warm=warm,
        )
        if self.wedged:
            # Zombie node: the kubelet accepted the pod but will never get
            # it running — it sits in LAUNCHING until the node is fenced.
            self._pending_ready[container.container_id] = _WEDGED_HANDLE
            return self.node.scale_duration(container.runtime.cold_start_s)
        network = self.network
        if network is not None:
            # Pull the image over the fabric first; the launch/init phases
            # (and their contention multiplier) start once it lands.
            def _pulled() -> None:
                if container.terminal or not self.node.alive:
                    self._cold_start_done(container, outcome="dead")
                    return
                self._launch_phases(container, on_ready, warm=warm)

            self._pending_ready[container.container_id] = network.image_pull(
                dest_node=self.node.node_id,
                size_bytes=container.runtime.image_size_bytes,
                on_complete=_pulled,
                label=f"pull:{container.container_id}",
            )
            return (
                network.uncontended_pull_s(container.runtime.image_size_bytes)
                + self.node.scale_duration(container.runtime.cold_start_s)
            )
        return self._launch_phases(container, on_ready, warm=warm)

    def _launch_phases(
        self,
        container: Container,
        on_ready: Callable[[Container], None],
        *,
        warm: bool,
    ) -> float:
        """Schedule the launch → init → ready sequence for *container*."""
        multiplier = self._contention_multiplier()
        launch = self.node.scale_duration(
            container.runtime.launch_time_s * multiplier
        )
        init = self.node.scale_duration(
            container.runtime.init_time_s * multiplier
        )

        def _to_init() -> None:
            if container.terminal or not self.node.alive:
                self._cold_start_done(container, outcome="dead")
                return
            container.mark_initializing()

        def _to_ready() -> None:
            alive = not container.terminal and self.node.alive
            self._cold_start_done(
                container, outcome="ready" if alive else "dead"
            )
            if not alive:
                return
            container.mark_ready(self.sim.now, warm=warm)
            on_ready(container)

        self.sim.call_in(
            launch, _to_init, label=f"launch:{container.container_id}"
        )
        handle = self.sim.call_in(
            launch + init, _to_ready, label=f"ready:{container.container_id}"
        )
        self._pending_ready[container.container_id] = handle
        return launch + init

    def _cold_start_done(
        self, container: Container, outcome: str = "ready"
    ) -> None:
        if container.container_id in self._pending_ready:
            del self._pending_ready[container.container_id]
            if self.node.cold_starts_in_flight > 0:
                self.node.cold_starts_in_flight -= 1
        span = self._cold_spans.pop(container.container_id, None)
        if span is not None:
            self.tracer.finish(span, outcome=outcome)

    def abort_cold_start(self, container: Container) -> None:
        """Cancel an in-flight cold start (container killed mid-launch)."""
        handle = self._pending_ready.get(container.container_id)
        if handle is not None:
            handle.cancel()
            self._cold_start_done(container, outcome="aborted")

    def wedge(self) -> None:
        """Enter zombie mode: freeze every in-flight cold start.

        The pending ready events are cancelled but the launches stay
        registered (and their spans open), so capacity accounting unwinds
        normally when the containers are eventually aborted or the node
        dies.
        """
        self.wedged = True
        for container_id, handle in list(self._pending_ready.items()):
            handle.cancel()
            self._pending_ready[container_id] = _WEDGED_HANDLE

    def on_node_failure(self) -> None:
        """Drop all in-flight cold starts when the node dies."""
        for handle in self._pending_ready.values():
            handle.cancel()
        self._pending_ready.clear()
        tracer = self.tracer
        for span in self._cold_spans.values():
            tracer.finish(span, outcome="node-failure")
        self._cold_spans.clear()
