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

An attempt of a function with no failure to recover *folds* its states
(on a fabric, only if it writes no checkpoints): one engine event at the
end of the segment instead of one per state and per checkpoint.  The
states in between are materialised, in order and with their own
timestamps, when that event fires or when something needs to see them
(DESIGN.md, "State-boundary fold addendum").
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.checkpoint.records import CheckpointRecord
from repro.common.types import ContainerState, FunctionState
from repro.core.jobs import Job
from repro.detection import backoff as backoff_schedule
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


class FoldPlan:
    """A folded attempt segment: the float chain of its boundaries.

    Entry ``j`` is state ``first + j``: it runs ``bases[j] / divisor``
    seconds (``divisor`` is what :meth:`~repro.cluster.node.Node.
    scale_duration` divides by) from the end of the entry before it,
    plus ``charge`` when a checkpoint followed that entry; a checkpoint
    follows state ``k`` when ``(k + 1) % interval == 0`` (never when
    ``interval`` is 0).  The segment runs to completion: ``count``
    checkpoints, then the finish window, which ends at ``finish_at``.

    No per-state lists are kept.  Readers walk the chain forward from a
    cursor with the same float additions: ``done`` entries are
    materialised, ``taken`` of the checkpoints, and the next entry (or,
    after the last, the finish window) starts at ``at``.
    """

    __slots__ = (
        "first", "bases", "divisor", "interval", "charge", "count",
        "finish_at", "done", "taken", "at",
    )

    def __init__(
        self, first: int, start: float, bases: list[float], divisor: float,
        interval: int, charge: float, finish_s: float,
    ) -> None:
        self.first = first
        self.bases = bases
        self.divisor = divisor
        self.interval = interval
        self.charge = charge
        # The chain adds as the stepwise path's ``call_in`` calls do:
        # ``t + d_k``, then ``+ charge``.
        t = start
        count = 0
        if interval:
            for index, base in enumerate(bases, first + 1):
                t = t + base / divisor
                if index % interval == 0:
                    t = t + charge
                    count += 1
        else:
            for base in bases:
                t = t + base / divisor
        self.count = count
        self.finish_at = t + finish_s / divisor
        self.done = 0
        self.taken = 0
        self.at = start


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
        self.timeout_at = math.inf  # the invocation time limit's deadline
        # In-flight state window, for continuous progress accounting.
        self.state_started_at: Optional[float] = None
        self.state_duration: float = 0.0
        self.final_progress: Optional[float] = None
        # Folded segment ahead of the attempt (None while stepwise).
        self.plan: Optional[FoldPlan] = None
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
        #: Checkpoint charges, one addition per checkpoint in the order
        #: taken (the summary sums these in submission order).
        self.checkpoint_time_s = 0.0
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
        if profile.state_jitter <= 0:
            return np.full(profile.n_states, profile.state_duration_s)
        # Drawn once per function: the registry need not keep the stream.
        rng = self.platform.sim.rng.transient(f"statedur:{self.function_id}")
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

    @property
    def latency(self) -> Optional[float]:
        """Admission-to-completion time; None while running."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.job.submitted_at

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
        self._invoke_span = self.platform.tracer.begin(
            "invoke",
            self.function_id,
            function=self.function_id,
            job=self.job.job_id,
            workload=self.profile.name,
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
        self.status = FunctionState.RUNNING

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
        timeout = self.job.request.timeout_s
        if timeout is None:
            timeout = platform.controller.limits.max_function_timeout_s
        attempt.timeout_at = platform.sim.now + timeout
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
            self._step(
                attempt, self.platform.sim.now + delay, self._begin_states,
                f"setup:{attempt.attempt_id}",
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
            if retries < backoff_schedule.MAX_ATTEMPTS:
                u = float(platform.sim.rng.stream("chaos:backoff").uniform())
                wait = policy.delay(retries, u)
                platform.metrics.backoff_wait_s += wait
                platform.tracer.instant(
                    "backoff",
                    f"backoff:restore:{attempt.attempt_id}",
                    duration=wait,
                    function=self.function_id,
                    tier=record.ref.tier_name,
                    retry=retries,
                )
                self._step(
                    attempt, platform.sim.now + wait,
                    lambda a: self._begin_restore(a, record, extra_delay, retries + 1),
                    f"backoff:{attempt.attempt_id}",
                )
                return
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
            self._arm_timeout(attempt)
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

    def _step(
        self, attempt: Attempt, at: float, resume: Callable[[Attempt], None],
        label: str, seq: Optional[int] = None,
    ) -> None:
        """Schedule the attempt's next timeline event: *resume(attempt)* at
        *at* (*seq*: see ``Simulator.call_at``), after its timeout if that
        may come first."""
        self._arm_timeout(attempt, at)
        attempt.state_handle = self.platform.sim.call_at(
            at, lambda: resume(attempt), label=label, seq=seq
        )

    def _arm_timeout(self, attempt: Attempt, ends_by: float = math.inf) -> None:
        """Enforce the per-invocation execution time limit (§II-A).

        An attempt running longer than the function's timeout is killed by
        the platform exactly like any other container failure — the
        recovery strategy then decides what survives (for Canary, the
        checkpoints do, so a timed-out function does not restart from
        scratch).  It is pushed only before a timeline event ending at or
        after the deadline (*ends_by*), a flow or a freeze: each event that
        ends first pushes the next, so a segment that finishes in time
        pushes none, and the timeout wins a tie with the event it precedes.
        """
        if attempt.timeout_handle is not None or ends_by < attempt.timeout_at:
            return

        def _timeout() -> None:
            if attempt.done or self.completed:
                return
            self.platform.controller.kill_container(attempt.container, "timeout")

        attempt.timeout_handle = self.platform.sim.call_at(
            attempt.timeout_at, _timeout, label=f"timeout:{attempt.attempt_id}",
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
            self._arm_timeout(attempt)
            return
        index = attempt.completed_states
        if index >= self.n_states:
            attempt.state_started_at = None
            finish = attempt.container.node.scale_duration(self.profile.finish_s)
            self._step(
                attempt, self.platform.sim.now + finish, self._complete,
                f"finish:{attempt.attempt_id}",
            )
            return
        if self._can_fold(attempt):
            self._fold(attempt)
            return
        duration = attempt.container.node.scale_duration(
            float(self._base_durations[index])
        )
        now = attempt.state_started_at = self.platform.sim.now
        attempt.state_duration = duration
        self._step(
            attempt, now + duration, self._state_done,
            f"state:{attempt.attempt_id}:{index}",
        )
        self._arm_recovery_checks()

    def _state_done(self, attempt: Attempt) -> None:
        if attempt.done or self.completed:
            return
        attempt.state_started_at = None
        index = attempt.completed_states
        attempt.completed_states = index + 1
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
                self.checkpoint_time_s += elapsed
                self._schedule_next_state(attempt)

            self._arm_timeout(attempt)
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
            self.checkpoint_time_s += duration
            self._step(
                attempt, self.platform.sim.now + duration,
                self._schedule_next_state, f"ckpt:{attempt.attempt_id}:{index}",
            )
        else:
            self._schedule_next_state(attempt)

    # ------------------------------------------------------------------
    # Folded segments
    # ------------------------------------------------------------------
    def _can_fold(self, attempt: Attempt) -> bool:
        """Whether the states ahead of *attempt* may run as one segment.

        Recovery checks read every live attempt's progress at arbitrary
        times, so a function folds only while no failure waits to be
        recovered; a loss unfolds the live siblings first.  On a
        fabric each checkpoint write is a flow, so an attempt that writes
        checkpoints stays stepwise there; one that writes none never
        touches the fabric between its states.
        """
        return not self._pending_events and (
            self.platform.network is None
            or not self.platform.strategy.checkpoints_enabled
            or attempt.secondary
        )

    def _fold(self, attempt: Attempt) -> None:
        """Plan the states ahead and schedule one event at the segment end.

        The boundary times chain the same float additions as the stepwise
        path's ``call_in`` calls: ``t + d_k``, then ``+ charge_k``.  No
        store or tier fills up, so a checkpoint's tier and charge depend
        only on its size and the tier brownout state.  Nothing the plan
        reads can change without :meth:`unfold` running first: node speed
        (stragglers), the tier brownout state and the checkpoint cadence.
        """
        platform = self.platform
        profile = self.profile
        node = attempt.container.node
        interval = 0  # 0: the attempt takes no checkpoints
        charge = 0.0
        if platform.strategy.checkpoints_enabled and not attempt.secondary:
            interval = platform.checkpointer.effective_interval(self.function_id)
            size = profile.checkpoint_size_bytes
            charge = profile.serialize_overhead_s + platform.tiers.write_seconds(
                platform.router.choose_tier(size), size
            )
        first = attempt.completed_states
        plan = FoldPlan(
            first, platform.sim.now, self._base_durations[first:].tolist(),
            node.speed, interval, charge, profile.finish_s,
        )
        attempt.plan = plan
        platform.folded[attempt] = self
        attempt.state_started_at = plan.at
        attempt.state_duration = plan.bases[0] / plan.divisor
        self._step(
            attempt, plan.finish_at, self._segment_done,
            f"finish:{attempt.attempt_id}",
        )

    def _segment_done(self, attempt: Attempt) -> None:
        # (No plan: the attempt was unfolded in its finish window.)
        plan = attempt.plan
        if plan is not None:
            if self.platform.tracer.enabled:
                self.materialise(attempt, self.platform.sim.now, inclusive=True)
            else:
                # Nothing can read the checkpoints left, since
                # ``_complete`` drops the chain: they take the closed form.
                left = plan.count - plan.taken
                if left:
                    self.platform.checkpointer.count_unwritten(
                        self.function_id, left
                    )
                    for _ in range(left):
                        # One addition per checkpoint, as stepwise.
                        self.checkpoint_time_s += plan.charge
                attempt.completed_states = plan.first + len(plan.bases)
                attempt.state_started_at = None
                attempt.state_duration = plan.bases[-1] / plan.divisor
            self._drop_plan(attempt)
        self._complete(attempt)

    def materialise(
        self, attempt: Attempt, until: float, *, inclusive: bool = False
    ) -> None:
        """Apply the folded state boundaries before *until* (or at it, with
        *inclusive*) in order, each at its own time, and set the attempt's
        in-flight window as the stepwise path would have it at *until*.

        An event at exactly *until* counts as not yet fired for observers
        (``inclusive=False``): they were scheduled before the boundary, so
        the engine would have run them first.  ``run(until=T)`` fires
        events at T, hence ``inclusive=True`` there.

        Untraced, only the checkpoints the chain retains after this call
        are written; the others take the closed form (``count_unwritten``)
        first, so ids keep their order.  A traced run writes every
        checkpoint, for its spans.
        """
        fired = operator.le if inclusive else operator.lt
        plan = attempt.plan
        bases, divisor, interval = plan.bases, plan.divisor, plan.interval
        j, t = plan.done, plan.at
        taken: list[tuple[int, float]] = []  # (state, end) per checkpoint
        while j < len(bases):
            end = t + bases[j] / divisor
            if not fired(end, until):
                break
            t = end
            j += 1
            if interval and (plan.first + j) % interval == 0:
                taken.append((plan.first + j - 1, end))
                t = t + plan.charge
        checkpointer, profile = self.platform.checkpointer, self.profile
        written = len(taken)
        if not self.platform.tracer.enabled:
            written = checkpointer.retained_of(
                written, profile.checkpoint_size_bytes, profile.state_duration_s
            )
        unwritten = len(taken) - written
        if unwritten:
            checkpointer.count_unwritten(self.function_id, unwritten)
        for i, (index, end) in enumerate(taken):
            if i >= unwritten:
                checkpointer.record_state(
                    job_id=self.job.job_id,
                    function_id=self.function_id,
                    state_index=index,
                    size_bytes=profile.checkpoint_size_bytes,
                    serialize_overhead_s=profile.serialize_overhead_s,
                    now=end,
                    node_id=attempt.container.node.node_id,
                    state_duration_s=profile.state_duration_s,
                )
            # One addition per checkpoint, as stepwise: a product rounds differently.
            self.checkpoint_time_s += plan.charge
        plan.taken += len(taken)
        plan.done, plan.at = j, t
        attempt.completed_states = plan.first + j
        if j == 0:
            return  # the first state, started by the fold, is in flight
        if j < len(bases) and fired(t, until):
            attempt.state_started_at = t
            attempt.state_duration = bases[j] / divisor
        else:  # a checkpoint or the finish is in flight
            attempt.state_started_at = None
            attempt.state_duration = bases[j - 1] / divisor

    def unfold(self, attempt: Attempt) -> None:
        """Materialise the folded boundaries before now and put the attempt
        back on one event per window, from the window in flight.

        The window's event takes the segment event's place among events
        at its time: stepwise, the attempt's chain keeps the place its
        first event took, so clones and other attempts on identical
        timelines fire in the same order.
        """
        now = self.platform.sim.now
        self.materialise(attempt, now)
        plan = attempt.plan
        self._drop_plan(attempt)
        j = plan.done
        name = attempt.attempt_id
        if j < len(plan.bases) and attempt.state_started_at is not None:
            at = plan.at + plan.bases[j] / plan.divisor
            resume = self._state_done
            label = f"state:{name}:{plan.first + j}"
        elif j < len(plan.bases) or plan.at >= now:
            # A checkpoint is in flight; the next window (after the last
            # state, the finish, whose start is ``plan.at``) starts, and
            # is scaled, when it lands.
            at, resume = plan.at, self._schedule_next_state
            label = f"ckpt:{name}:{plan.first + j - 1}"
        else:
            return  # the finish is in flight: the segment event completes it
        handle = attempt.state_handle
        handle.cancel()
        # A timeout pushed for the same time must precede the window.
        seq = handle.seq if at < handle.time and at != attempt.timeout_at else None
        self._step(attempt, at, resume, label, seq)

    def _settle(self, attempt: Attempt) -> None:
        """Materialise a folded attempt that stops now (its timers are
        cancelled by the caller)."""
        if attempt.plan is not None:
            self.materialise(attempt, self.platform.sim.now)
            self._drop_plan(attempt)

    def _drop_plan(self, attempt: Attempt) -> None:
        attempt.plan = None
        del self.platform.folded[attempt]

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
        platform.controller.terminate(winning.container, ContainerState.COMPLETED)
        platform.release_owner(winning.container.container_id)
        # Cancel losing siblings (request replication).
        for attempt in list(self._live.values()):
            if attempt is winning or attempt.done:
                continue
            self._settle(attempt)
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
            self._settle(attempt)
            attempt.final_progress = attempt.continuous_progress(now)
            attempt.done = True
            attempt.cancel_timers()
            self._finish_attempt_spans(attempt, reason)
        # Progress is read below and recovery checks follow: unfold siblings.
        for sibling in self.live_attempts():
            if sibling.plan is not None:
                self.unfold(sibling)
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
        self._settle(attempt)
        attempt.final_progress = attempt.continuous_progress(self.platform.sim.now)
        self._arm_timeout(attempt)
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
        self._settle(attempt)
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
