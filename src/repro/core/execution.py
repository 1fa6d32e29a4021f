"""The function execution state machine.

Drives one logical function invocation through the phase structure of
Eq. 1–2: container launch → runtime init → input fetch → S states (each
followed by a checkpoint opportunity) → finish.  A function may run several
*attempts* over its life: the first launch, recovery attempts after
failures, and concurrent siblings under request replication.

Progress is counted in *completed states*.  A failure event is considered
recovered the moment any live attempt of the function has again completed
as many states as the function had completed when the kill happened — that
difference in timestamps is the paper's per-failure recovery time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.checkpoint.records import CheckpointRecord
from repro.common.types import ContainerState, FunctionState
from repro.core.jobs import Job
from repro.faas.container import Container, ContainerPurpose
from repro.faas.controller import ContainerRequest
from repro.metrics.collector import FailureEvent
from repro.sim.engine import EventHandle
from repro.trace.tracer import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.canary import CanaryPlatform

#: Migrating a failed function onto a warm replica: context
#: re-establishment, trigger rewiring.
ADOPTION_OVERHEAD_S = 0.5


class Attempt:
    """One container-bound try at executing the function's states."""

    def __init__(
        self,
        attempt_id: str,
        index: int,
        container: Container,
        from_state: int,
        *,
        secondary: bool = False,
        via: str = "launch",
    ) -> None:
        self.attempt_id = attempt_id
        self.index = index
        self.container = container
        self.from_state = from_state
        self.completed_states = from_state
        self.secondary = secondary
        self.via = via  # launch / cold / replica / standby / sibling
        self.running_states = False
        self.done = False
        # Timer or network-flow handle driving the next phase transition;
        # both expose ``cancel()`` (see FlowHandle duck-typing note).
        self.state_handle: Optional[EventHandle] = None
        self.kill_handle: Optional[EventHandle] = None
        self.timeout_handle: Optional[EventHandle] = None
        # In-flight state window, for continuous progress accounting.
        self.state_started_at: Optional[float] = None
        self.state_duration: float = 0.0
        self.final_progress: Optional[float] = None
        # Open tracing spans (None while untraced / after they close).
        self.span: Optional[Span] = None
        self.restore_span: Optional[Span] = None

    def continuous_progress(self, now: float) -> float:
        """Progress in state units, counting the in-flight state's fraction.

        The fraction is capped just below 1 so an in-flight state never
        counts as committed.
        """
        if self.final_progress is not None:
            return self.final_progress
        progress = float(self.completed_states)
        if self.state_started_at is not None and self.state_duration > 0:
            fraction = (now - self.state_started_at) / self.state_duration
            progress += min(max(fraction, 0.0), 0.999)
        return progress

    def cancel_timers(self) -> None:
        for handle in (self.state_handle, self.kill_handle,
                       self.timeout_handle):
            if handle is not None:
                handle.cancel()
        self.state_handle = None
        self.kill_handle = None
        self.timeout_handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Attempt({self.attempt_id}, via={self.via}, "
            f"states={self.completed_states}, done={self.done})"
        )


class FunctionExecution:
    """One logical function invocation of a job."""

    def __init__(self, platform: CanaryPlatform, job: Job, index: int) -> None:
        self.platform = platform
        self.job = job
        self.index = index
        self.profile = job.workload
        self.function_id = platform.ids.function_id(job.job_id, index)
        self.status = FunctionState.QUEUED
        self.completed = False
        self.completed_at: Optional[float] = None
        self.attempts: list[Attempt] = []
        self._live: dict[str, Attempt] = {}  # container_id -> attempt
        self._pending_requests: list[ContainerRequest] = []
        self._pending_events: list[FailureEvent] = []
        self._base_durations = self._draw_state_durations()
        self._invoke_span: Optional[Span] = None
        self._recovery_spans: dict[int, Span] = {}  # id(event) -> span

    # ------------------------------------------------------------------
    # Deterministic per-function state durations
    # ------------------------------------------------------------------
    def _draw_state_durations(self) -> np.ndarray:
        """Per-state base durations, fixed for the function's lifetime.

        Re-executing a state after a failure therefore costs the same as the
        first run (modulo node speed), which the lost-work accounting relies
        on.
        """
        profile = self.profile
        rng = self.platform.sim.rng.stream(f"statedur:{self.function_id}")
        if profile.state_jitter <= 0:
            return np.full(profile.n_states, profile.state_duration_s)
        draws = rng.normal(
            loc=profile.state_duration_s,
            scale=profile.state_jitter * profile.state_duration_s,
            size=profile.n_states,
        )
        floor = 0.05 * profile.state_duration_s
        return np.maximum(draws, floor)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        return self.profile.n_states

    def best_progress(self, now: Optional[float] = None) -> float:
        """Highest continuous progress across attempts (live or dead)."""
        if not self.attempts:
            return 0.0
        if now is None:
            now = self.platform.sim.now
        return max(a.continuous_progress(now) for a in self.attempts)

    def live_attempts(self) -> list[Attempt]:
        return [a for a in self._live.values() if not a.done]

    def estimated_remaining_work_s(self, from_state: int) -> float:
        """Baseline seconds of state work left when resuming at *from_state*."""
        remaining = float(np.sum(self._base_durations[from_state:]))
        return remaining + self.profile.finish_s

    # ------------------------------------------------------------------
    # Launch / attempt creation
    # ------------------------------------------------------------------
    def submit(self) -> None:
        """Called once by the platform after admission."""
        self.platform.metrics.start_function(
            self.function_id, self.job.job_id, self.profile.name, self.platform.sim.now
        )
        self._invoke_span = self.platform.tracer.begin(
            "invoke",
            self.function_id,
            function=self.function_id,
            job=self.job.job_id,
            workload=self.profile.name,
        )
        self.platform.database.function_info.insert(
            {
                "function_id": self.function_id,
                "job_id": self.job.job_id,
                "runtime": self.profile.runtime.value,
                "worker_id": None,
                "state": self.status.value,
                "attempts": 0,
                "current_state_index": -1,
            }
        )
        self.status = FunctionState.SCHEDULED
        self.platform.strategy.launch_function(self)

    def request_cold_attempt(
        self,
        *,
        from_state: int = 0,
        restore_record: Optional[CheckpointRecord] = None,
        secondary: bool = False,
        via: str = "cold",
        avoid_nodes: frozenset[str] = frozenset(),
    ) -> ContainerRequest:
        """Ask the controller for a fresh (cold) container for this function."""

        def _placed(container: Container) -> None:
            self.platform.register_owner(container.container_id, self)

        def _ready(container: Container) -> None:
            if request in self._pending_requests:
                self._pending_requests.remove(request)
            self.begin_attempt(
                container,
                from_state=from_state,
                restore_record=restore_record,
                secondary=secondary,
                via=via,
            )

        request = ContainerRequest(
            kind=self.profile.runtime,
            purpose=ContainerPurpose.FUNCTION,
            on_ready=_ready,
            memory_bytes=self.job.request.function_memory_bytes,
            avoid_nodes=avoid_nodes,
            on_placed=_placed,
        )
        self._pending_requests.append(request)
        self.platform.controller.submit(request)
        return request

    def begin_attempt(
        self,
        container: Container,
        *,
        from_state: int = 0,
        restore_record: Optional[CheckpointRecord] = None,
        secondary: bool = False,
        via: str = "launch",
        adoption: bool = False,
    ) -> Optional[Attempt]:
        """Bind *container* to a new attempt and start its timeline.

        ``adoption=True`` marks takeover of a warm replica/standby: the
        attempt pays the adoption overhead instead of a cold start.
        """
        platform = self.platform
        if self.completed:
            # A cold start or adoption raced with completion (e.g. an RR
            # sibling finished first): release the now-useless container.
            platform.controller.terminate(container, ContainerState.KILLED)
            platform.release_owner(container.container_id)
            return None
        attempt = Attempt(
            attempt_id=platform.ids.attempt_id(self.function_id),
            index=len(self.attempts),
            container=container,
            from_state=from_state,
            secondary=secondary,
            via=via,
        )
        self.attempts.append(attempt)
        self._live[container.container_id] = attempt
        container.current_function = self.function_id
        platform.register_owner(container.container_id, self)
        platform.metrics.note_attempt(self.function_id)
        platform.metrics.note_ready(self.function_id, platform.sim.now)
        self.status = FunctionState.RUNNING
        self.platform.database.function_info.update(
            self.function_id,
            worker_id=container.node.node_id,
            state=self.status.value,
            attempts=len(self.attempts),
        )

        attempt.span = platform.tracer.begin(
            "exec",
            f"exec:{attempt.attempt_id}",
            parent=self._invoke_span,
            function=self.function_id,
            node=container.node.node_id,
            container=container.container_id,
            attempt=attempt.index,
            via=via,
            from_state=from_state,
        )
        self._arm_timeout(attempt)
        delay = 0.0
        if adoption:
            delay += ADOPTION_OVERHEAD_S
        if restore_record is not None:
            attempt.restore_span = platform.tracer.begin(
                "restore",
                f"restore:{attempt.attempt_id}",
                parent=attempt.span,
                function=self.function_id,
                node=container.node.node_id,
                tier=restore_record.ref.tier_name,
                bytes=restore_record.ref.size_bytes,
                from_state=from_state,
            )
            self._begin_restore(attempt, restore_record, delay)
            return attempt
        if from_state == 0:
            delay += container.node.scale_duration(self.profile.input_fetch_s)
        self._schedule_setup(attempt, delay)
        return attempt

    def _schedule_setup(self, attempt: Attempt, delay: float) -> None:
        if delay > 0:
            attempt.state_handle = self.platform.sim.call_in(
                delay,
                lambda: self._begin_states(attempt),
                label=f"setup:{attempt.attempt_id}",
            )
        else:
            self._begin_states(attempt)

    def _begin_restore(
        self,
        attempt: Attempt,
        record: CheckpointRecord,
        extra_delay: float,
        retries: int = 0,
    ) -> None:
        """Fetch *record* for the attempt, backing off while its tier is
        browned out.

        Without a backoff policy this reproduces the legacy restore path
        exactly.  With one, a refusing tier is retried with jittered
        exponential backoff; once the budget is exhausted the restore
        degrades gracefully — first to the newest checkpoint on a healthy
        tier, then to a from-scratch restart.
        """
        platform = self.platform
        if attempt.done or self.completed:
            return
        policy = platform.scenario.backoff
        if policy is not None and platform.checkpointer.tier_refusing(
            record.ref.tier_name
        ):
            if retries < policy.max_attempts:
                u = float(platform.sim.rng.stream("chaos:backoff").uniform())
                wait = policy.delay(retries, u)
                platform.metrics.note_backoff(wait)
                platform.tracer.instant(
                    "backoff",
                    f"backoff:restore:{attempt.attempt_id}",
                    duration=wait,
                    function=self.function_id,
                    tier=record.ref.tier_name,
                    retry=retries,
                )
                attempt.state_handle = platform.sim.call_in(
                    wait,
                    lambda: self._begin_restore(
                        attempt, record, extra_delay, retries + 1
                    ),
                    label=f"backoff:{attempt.attempt_id}",
                )
                return
            platform.metrics.restore_fallbacks += 1
            fallback = platform.checkpointer.latest(
                self.function_id, healthy_only=True
            )
            if fallback is None:
                # No healthy copy anywhere: restart from scratch rather
                # than wait out the brownout.
                if attempt.restore_span is not None:
                    platform.tracer.finish(
                        attempt.restore_span, outcome="abandoned"
                    )
                    attempt.restore_span = None
                attempt.from_state = 0
                attempt.completed_states = 0
                self._schedule_setup(
                    attempt,
                    extra_delay
                    + attempt.container.node.scale_duration(
                        self.profile.input_fetch_s
                    ),
                )
                return
            record = fallback
            attempt.from_state = record.state_index + 1
            attempt.completed_states = attempt.from_state
        if platform.network is not None:
            # The checkpoint fetch (part of t_res, Eq. 2) is a flow on
            # the fabric: it competes with every other transfer, which
            # is what makes mass recovery contend (fig. 11 at scale).
            attempt.state_handle = platform.network.fetch_checkpoint(
                record.ref,
                dest_node=attempt.container.node.node_id,
                on_complete=lambda: self._begin_states(attempt),
                extra_latency_s=extra_delay,
                label=f"restore:{attempt.attempt_id}",
            )
            return
        self._schedule_setup(
            attempt, extra_delay + platform.checkpointer.restore_time(record)
        )

    def _arm_timeout(self, attempt: Attempt) -> None:
        """Enforce the per-invocation execution time limit (§II-A).

        An attempt running longer than the function's timeout is killed by
        the platform exactly like any other container failure — the
        recovery strategy then decides what survives (for Canary, the
        checkpoints do, so a timed-out function does not restart from
        scratch).
        """
        timeout = self.job.request.timeout_s
        if timeout is None:
            timeout = self.platform.controller.limits.max_function_timeout_s

        def _timeout() -> None:
            if attempt.done or self.completed:
                return
            self.platform.controller.kill_container(attempt.container, "timeout")

        attempt.timeout_handle = self.platform.sim.call_in(
            timeout, _timeout, label=f"timeout:{attempt.attempt_id}",
        )

    # ------------------------------------------------------------------
    # State timeline
    # ------------------------------------------------------------------
    def _begin_states(self, attempt: Attempt) -> None:
        if attempt.done or self.completed:
            return
        if attempt.restore_span is not None:
            self.platform.tracer.finish(attempt.restore_span, outcome="restored")
            attempt.restore_span = None
        attempt.running_states = True
        now = self.platform.sim.now
        # Resuming marks the recovery "setup complete" point for any failure
        # events still waiting for a resume.
        for event in self._pending_events:
            if event.resume_time is None:
                event.resume_time = now
                event.resumed_from_state = attempt.from_state
                event.recovered_via = attempt.via
        self._arm_recovery_checks()
        self._plan_injected_kill(attempt)
        self._schedule_next_state(attempt)

    def _plan_injected_kill(self, attempt: Attempt) -> None:
        fraction = self.platform.injector.attempt_kill_fraction(
            job_id=self.job.job_id,
            function_id=self.function_id,
            attempt_index=attempt.index,
            secondary=attempt.secondary,
        )
        if fraction is None:
            return
        window = self.planned_remaining_duration(attempt)
        delay = fraction * window

        def _kill() -> None:
            if attempt.done or self.completed:
                return
            self.platform.controller.kill_container(attempt.container, "injected")

        attempt.kill_handle = self.platform.sim.call_in(
            delay, _kill, label=f"kill:{attempt.attempt_id}",
        )

    def planned_remaining_duration(self, attempt: Attempt) -> float:
        """Projected wall time for the rest of the attempt's execution."""
        node = attempt.container.node
        remaining = float(
            np.sum(self._base_durations[attempt.completed_states :])
        )
        total = node.scale_duration(remaining + self.profile.finish_s)
        if self.platform.strategy.checkpoints_enabled:
            n_ckpts = max(0, self.n_states - attempt.completed_states)
            interval = self.platform.checkpointer.effective_interval(
                self.function_id
            )
            n_ckpts = n_ckpts // max(1, interval)
            size = self.profile.checkpoint_size_bytes
            per_ckpt = self.profile.serialize_overhead_s + (
                self.platform.checkpointer.router.choose_tier(size).write_time(size)
            )
            total += n_ckpts * per_ckpt
        return total

    def _schedule_next_state(self, attempt: Attempt) -> None:
        if attempt.done or self.completed:
            return
        if attempt.container.node.zombie:
            # Zombie node: the runtime accepted the work but is wedged.
            # No further transitions happen; the invocation timeout or the
            # node's eventual death recovers the attempt.
            return
        index = attempt.completed_states
        if index >= self.n_states:
            attempt.state_started_at = None
            finish = attempt.container.node.scale_duration(self.profile.finish_s)
            attempt.state_handle = self.platform.sim.call_in(
                finish,
                lambda: self._complete(attempt),
                label=f"finish:{attempt.attempt_id}",
            )
            return
        duration = attempt.container.node.scale_duration(
            float(self._base_durations[index])
        )
        attempt.state_started_at = self.platform.sim.now
        attempt.state_duration = duration
        attempt.state_handle = self.platform.sim.call_in(
            duration,
            lambda: self._state_done(attempt),
            label=f"state:{attempt.attempt_id}:{index}",
        )
        self._arm_recovery_checks()

    def _state_done(self, attempt: Attempt) -> None:
        if attempt.done or self.completed:
            return
        attempt.state_started_at = None
        index = attempt.completed_states
        attempt.completed_states = index + 1
        self.platform.database.function_info.set_field(
            self.function_id, "current_state_index", index
        )
        self._arm_recovery_checks()
        strategy = self.platform.strategy
        take_ckpt = (
            strategy.checkpoints_enabled
            and not attempt.secondary
            and self.platform.checkpointer.should_checkpoint(self.function_id, index)
        )
        if take_ckpt and self.platform.network is not None:
            # Network-modeled checkpoint: the write is a flow competing
            # for fabric bandwidth; the next state starts when it lands.
            def _ckpt_done(record, elapsed: float) -> None:
                if attempt.done or self.completed:
                    return
                self.platform.metrics.note_checkpoint(self.function_id, elapsed)
                self._schedule_next_state(attempt)

            _, attempt.state_handle = self.platform.checkpointer.record_state_async(
                network=self.platform.network,
                job_id=self.job.job_id,
                function_id=self.function_id,
                state_index=index,
                size_bytes=self.profile.checkpoint_size_bytes,
                serialize_overhead_s=self.profile.serialize_overhead_s,
                now=self.platform.sim.now,
                node_id=attempt.container.node.node_id,
                state_duration_s=self.profile.state_duration_s,
                on_done=_ckpt_done,
            )
        elif take_ckpt:
            _, duration = self.platform.checkpointer.record_state(
                job_id=self.job.job_id,
                function_id=self.function_id,
                state_index=index,
                size_bytes=self.profile.checkpoint_size_bytes,
                serialize_overhead_s=self.profile.serialize_overhead_s,
                now=self.platform.sim.now,
                node_id=attempt.container.node.node_id,
                state_duration_s=self.profile.state_duration_s,
            )
            self.platform.metrics.note_checkpoint(self.function_id, duration)
            attempt.state_handle = self.platform.sim.call_in(
                duration,
                lambda: self._schedule_next_state(attempt),
                label=f"ckpt:{attempt.attempt_id}:{index}",
            )
        else:
            self._schedule_next_state(attempt)

    # ------------------------------------------------------------------
    # Tracing helpers
    # ------------------------------------------------------------------
    def _finish_attempt_spans(self, attempt: Attempt, outcome: str) -> None:
        tracer = self.platform.tracer
        if attempt.restore_span is not None:
            tracer.finish(attempt.restore_span, outcome=outcome)
            attempt.restore_span = None
        if attempt.span is not None:
            tracer.finish(
                attempt.span, outcome=outcome, states=attempt.completed_states
            )
            attempt.span = None

    def _finish_recovery_span(self, event: FailureEvent) -> None:
        span = self._recovery_spans.pop(id(event), None)
        if span is not None:
            self.platform.tracer.finish(
                span, t=event.recovered_at, via=event.recovered_via
            )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete(self, winning: Attempt) -> None:
        if self.completed:
            return
        self.completed = True
        self.job.completed_count += 1
        now = self.platform.sim.now
        self.completed_at = now
        self.status = FunctionState.COMPLETED
        winning.done = True
        winning.cancel_timers()
        self._finish_attempt_spans(winning, "completed")
        # Any failure event still unresolved is resolved at completion: the
        # function is done, so by definition pre-failure progress is regained.
        for event in self._pending_events:
            if event.recovered_at is None:
                event.recovered_at = now
            self._finish_recovery_span(event)
        self._pending_events.clear()
        if self._invoke_span is not None:
            self.platform.tracer.finish(
                self._invoke_span, attempts=len(self.attempts)
            )
            self._invoke_span = None
        platform = self.platform
        platform.metrics.note_completed(self.function_id, now)
        platform.database.function_info.update(
            self.function_id, state=self.status.value
        )
        platform.controller.terminate(winning.container, ContainerState.COMPLETED)
        platform.release_owner(winning.container.container_id)
        # Cancel losing siblings (request replication).
        for attempt in list(self._live.values()):
            if attempt is winning or attempt.done:
                continue
            attempt.done = True
            attempt.cancel_timers()
            self._finish_attempt_spans(attempt, "cancelled")
            platform.controller.terminate(attempt.container, ContainerState.KILLED)
            platform.release_owner(attempt.container.container_id)
        self._live.clear()
        # Cancel in-flight container requests (e.g. an RR replacement whose
        # cold start raced with completion).
        for request in self._pending_requests:
            request.cancel()
            if request.container is not None and not request.container.terminal:
                platform.controller.terminate(request.container, ContainerState.KILLED)
                platform.release_owner(request.container.container_id)
        self._pending_requests.clear()
        platform.checkpointer.drop_function(self.function_id)
        platform.strategy.on_function_complete(self)
        platform.function_completed(self)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def handle_container_loss(self, container: Container, reason: str) -> None:
        """Dispatch from the platform when one of our containers dies.

        ``attempt`` is None when the container died during its cold start
        (e.g. a node failure mid-launch) — the function never started state
        work on it, but it still needs recovery.
        """
        attempt = self._live.pop(container.container_id, None)
        self.platform.release_owner(container.container_id)
        if self.completed:
            return
        now = self.platform.sim.now
        if attempt is not None:
            if attempt.done:
                return
            attempt.final_progress = attempt.continuous_progress(now)
            attempt.done = True
            attempt.cancel_timers()
            self._finish_attempt_spans(attempt, reason)
        event = FailureEvent(
            function_id=self.function_id,
            job_id=self.job.job_id,
            kill_time=now,
            progress_states=self.best_progress(now),
            reason=reason,
            node_id=container.node.node_id,
        )
        self.platform.metrics.record_failure(event)
        self._pending_events.append(event)
        if self.platform.tracer.enabled:
            self._recovery_spans[id(event)] = self.platform.tracer.begin(
                "recovery",
                f"recovery:{self.function_id}",
                parent=self._invoke_span,
                t=now,
                function=self.function_id,
                reason=reason,
                progress=event.progress_states,
            )
        survivors = self.live_attempts()
        if survivors:
            # A sibling is still running (request replication): recovery is
            # simply the sibling catching up to the lost progress.
            event.resume_time = now
            event.resumed_from_state = max(
                a.completed_states for a in survivors
            )
            event.recovered_via = "sibling"
            self._arm_recovery_checks()
            self.platform.strategy.on_sibling_loss(self, attempt, event)
            return
        self.status = FunctionState.RECOVERING
        self.platform.database.function_info.update(
            self.function_id, state=self.status.value
        )
        self.platform.strategy.on_failure(self, attempt, event)

    # ------------------------------------------------------------------
    # Gray-failure support (chaos layer)
    # ------------------------------------------------------------------
    def freeze_container(self, container_id: str) -> bool:
        """Stop a live attempt's progress without killing it (zombie node).

        The state/checkpoint transition timer is cancelled — the attempt
        never reaches its next state — while the invocation timeout stays
        armed as the recovery backstop for undetected gray failures.
        Progress is pinned at the freeze instant so the wedged attempt does
        not appear to keep computing.
        """
        attempt = self._live.get(container_id)
        if attempt is None or attempt.done:
            return False
        attempt.final_progress = attempt.continuous_progress(self.platform.sim.now)
        if attempt.state_handle is not None:
            attempt.state_handle.cancel()
            attempt.state_handle = None
        return True

    # ------------------------------------------------------------------
    # Proactive migration (failure prediction extension)
    # ------------------------------------------------------------------
    def migrate(self, attempt: Attempt) -> bool:
        """Proactively move a running attempt off its (suspect) node.

        Unlike failure recovery this is *planned*: there is no detection
        delay and no failure event.  The attempt stops, its container is
        released, and the function resumes elsewhere from its latest
        checkpoint (losing only the in-flight state).  Returns False when
        the attempt is not in a migratable phase.
        """
        platform = self.platform
        if attempt.done or self.completed or not attempt.running_states:
            return False
        source_node = attempt.container.node
        attempt.final_progress = attempt.continuous_progress(platform.sim.now)
        attempt.done = True
        attempt.cancel_timers()
        self._finish_attempt_spans(attempt, "migrated")
        self._live.pop(attempt.container.container_id, None)
        platform.release_owner(attempt.container.container_id)
        platform.controller.terminate(attempt.container, ContainerState.KILLED)

        strategy = platform.strategy
        record = None
        if strategy.checkpoints_enabled:
            record = platform.checkpointer.latest(self.function_id)
        from_state = 0 if record is None else record.state_index + 1

        if strategy.replication_enabled:
            replica = platform.runtime_manager.claim_replica(
                self.profile.runtime,
                self.function_id,
                failed_node=source_node,
                exclude_failed_node=True,
            )
            if replica is not None:
                self.begin_attempt(
                    replica,
                    from_state=from_state,
                    restore_record=record,
                    via="migration",
                    adoption=True,
                )
                return True
        self.request_cold_attempt(
            from_state=from_state,
            restore_record=record,
            via="migration",
            avoid_nodes=frozenset({source_node.node_id}),
        )
        return True

    def _arm_recovery_checks(self) -> None:
        """Resolve (or schedule resolution of) pending failure events.

        An event resolves the instant some live attempt's continuous progress
        reaches the progress the function had at the kill.  Integer crossings
        happen at state completions; fractional crossings (the partial state
        lost in the kill) are scheduled inside the current state window.
        """
        if not self._pending_events:
            return
        now = self.platform.sim.now
        live = self.live_attempts()
        if not live:
            return
        for event in list(self._pending_events):
            if event.recovered_at is not None or event.resume_time is None:
                continue
            target = event.progress_states
            for attempt in live:
                if attempt.continuous_progress(now) >= target:
                    event.recovered_at = now
                    self._finish_recovery_span(event)
                    break
                if (
                    attempt.state_started_at is not None
                    and attempt.completed_states < target
                    and target < attempt.completed_states + 1
                ):
                    crossing = attempt.state_started_at + (
                        (target - attempt.completed_states)
                        * attempt.state_duration
                    )
                    if crossing >= now:
                        self.platform.sim.call_at(
                            crossing,
                            self._make_resolver(event),
                            label=f"recovered:{event.function_id}",
                        )
        self._pending_events = [
            e for e in self._pending_events if e.recovered_at is None
        ]

    def _make_resolver(self, event: FailureEvent):
        def _resolve() -> None:
            if event.recovered_at is not None:
                return
            now = self.platform.sim.now
            # Re-verify: the attempt that was crossing the target may itself
            # have died in the meantime.
            regained = any(
                a.continuous_progress(now) >= event.progress_states
                for a in self.live_attempts()
            )
            if regained:
                event.recovered_at = now
                self._finish_recovery_span(event)
                if event in self._pending_events:
                    self._pending_events.remove(event)

        return _resolve
