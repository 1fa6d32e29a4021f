"""Active-standby (AS) baseline [66], compared in Fig. 10.

Every function keeps one passive warm instance.  On failure the standby is
activated and a new standby is created; because AS has no checkpoints, the
activated instance restarts the function's work from the beginning ("there
is no checkpoint in the AS technique" — which is why AS execution time grows
with error rate).  The dormant standby consumes (and bills) resources for
the whole function lifetime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.types import ContainerState, RecoveryStrategyName
from repro.faas.container import Container, ContainerPurpose
from repro.faas.controller import ContainerRequest
from repro.strategies.base import RecoveryStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.canary import CanaryPlatform
    from repro.core.execution import Attempt, FunctionExecution
    from repro.metrics.collector import FailureEvent


class ActiveStandbyStrategy(RecoveryStrategy):
    """One active + one passive instance per function."""

    name = RecoveryStrategyName.ACTIVE_STANDBY
    checkpoints_enabled = False
    replication_enabled = False

    def __init__(self, platform: CanaryPlatform) -> None:
        super().__init__(platform)
        # function_id -> warm standby container (or None while launching)
        self._standby: dict[str, Optional[Container]] = {}
        self._standby_requests: dict[str, ContainerRequest] = {}
        self._standby_owner: dict[str, str] = {}  # container_id -> function_id
        self._executions: dict[str, "FunctionExecution"] = {}
        platform.controller.on_container_loss(self._handle_standby_loss)
        self.standby_activations = 0
        self.standby_misses = 0

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------
    def launch_function(self, execution: "FunctionExecution") -> None:
        self._executions[execution.function_id] = execution
        execution.request_cold_attempt(via="launch")
        self._spawn_standby(execution)

    def _spawn_standby(self, execution: "FunctionExecution") -> None:
        if execution.completed:
            return
        function_id = execution.function_id
        self._standby[function_id] = None

        def _ready(container: Container) -> None:
            # The function may have completed while the standby launched.
            if execution.completed:
                self.platform.controller.terminate(container, ContainerState.KILLED)
                return
            self._standby[function_id] = container
            self._standby_owner[container.container_id] = function_id
            self._maybe_kill_standby(execution, container)

        request = ContainerRequest(
            kind=execution.profile.runtime,
            purpose=ContainerPurpose.STANDBY,
            on_ready=_ready,
            memory_bytes=execution.job.request.function_memory_bytes,
            warm=True,
        )
        self.platform.controller.submit(request)
        self._standby_requests[function_id] = request

    def _maybe_kill_standby(
        self, execution: "FunctionExecution", container: Container
    ) -> None:
        """Standbys of victim functions die too, at the secondary kill rate."""
        fraction = self.platform.injector.attempt_kill_fraction(
            job_id=execution.job.job_id,
            function_id=execution.function_id,
            attempt_index=0,
            secondary=True,
        )
        if fraction is None:
            return
        window = container.node.scale_duration(execution.profile.mean_exec_s)

        def _kill() -> None:
            if container.terminal or execution.completed:
                return
            self.platform.injector.note_kill()
            self.platform.controller.kill_container(container, "injected-standby")

        self.platform.sim.call_in(
            fraction * window,
            _kill,
            label=f"kill-standby:{execution.function_id}",
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def on_failure(
        self,
        execution: "FunctionExecution",
        attempt: "Attempt",
        event: "FailureEvent",
    ) -> None:
        def _activate() -> None:
            if execution.completed:
                return
            standby = self._standby.get(execution.function_id)
            if standby is not None and standby.is_warm_idle:
                self.standby_activations += 1
                self._standby[execution.function_id] = None
                self._standby_owner.pop(standby.container_id, None)
                standby.adopt(execution.function_id)
                execution.begin_attempt(
                    standby,
                    from_state=0,   # AS has no checkpoints
                    via="standby",
                    adoption=True,
                )
                self._spawn_standby(execution)
            else:
                # Standby dead or still launching: behave like retry.
                self.standby_misses += 1
                execution.request_cold_attempt(from_state=0, via="cold")

        self.after_detection(
            _activate,
            label=f"as-activate:{execution.function_id}",
            node_id=event.node_id,
        )

    def _handle_standby_loss(self, container: Container, reason: str) -> None:
        if container.purpose != ContainerPurpose.STANDBY:
            return
        function_id = self._standby_owner.pop(container.container_id, None)
        if function_id is None:
            return
        if self._standby.get(function_id) is container:
            self._standby[function_id] = None
        execution = self._executions.get(function_id)
        if execution is not None and not execution.completed:
            self._spawn_standby(execution)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def on_function_complete(self, execution: "FunctionExecution") -> None:
        super().on_function_complete(execution)
        function_id = execution.function_id
        request = self._standby_requests.pop(function_id, None)
        if request is not None:
            request.cancel()
            if request.container is not None and not request.container.terminal:
                self.platform.controller.terminate(
                    request.container, ContainerState.KILLED
                )
        standby = self._standby.pop(function_id, None)
        if standby is not None and not standby.terminal:
            self._standby_owner.pop(standby.container_id, None)
            self.platform.controller.terminate(standby, ContainerState.KILLED)
        self._executions.pop(function_id, None)
