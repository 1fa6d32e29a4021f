"""Exactness guard for folded state boundaries.

An attempt of a function with no failure to recover runs its states as
one folded segment (on a fabric, only if it writes no checkpoints): one
engine event at the segment end, the states in between materialised
later with their own timestamps (DESIGN.md, "State-boundary fold
addendum").  The reference is the stepwise path, one event per state and
per checkpoint, which runs when the fold predicate is patched to refuse.
Every scenario below runs both ways and must agree exactly: the summary,
every execution's completion, latency, checkpoint time, attempts and
checkpoint count, the failure events, the database rows (as sets,
since rows land in materialisation order) and, for the traced run, the
spans (as a multiset, parents named rather than numbered).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict
from typing import Callable, Optional

import pytest

from repro.adaptive import AdaptiveConfig
from repro.common.types import RuntimeKind
from repro.common.units import KiB, mb
from repro.autoscale import AdmissionConfig, AutoscaleConfig
from repro.core.canary import CanaryPlatform
from repro.core.execution import FoldPlan, FunctionExecution
from repro.core.jobs import JobRequest
from repro.detection import BackoffPolicy, DetectionConfig
from repro.experiments.config import ScenarioConfig
from repro.faas.limits import PlatformLimits
from repro.faults.chaos import ChaosConfig, TierBrownout, default_chaos_preset
from repro.metrics.engine import collect_engine_stats
from repro.network.config import get_network_preset
from repro.strategies.cloning import CloningConfig
from repro.trace.tracer import Tracer
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig
from repro.workloads.profiles import WorkloadProfile

from tests.conftest import TINY, TINY_BIG_CKPT

BASE = ScenarioConfig(
    workload="graph-bfs",
    strategy="canary",
    error_rate=0.2,
    num_functions=40,
    num_nodes=6,
)
#: Sibling and no-checkpoint strategies on a contended fabric.
FABRIC = BASE.with_(network=get_network_preset("10gbe"))


def _local_spill_crash(platform: CanaryPlatform) -> None:
    """Spills land on node-local pmem (no node failures are configured),
    then a node dies mid-run and takes its spills with it."""
    platform.submit_job(JobRequest(workload=TINY_BIG_CKPT, num_functions=24))
    victim = platform.cluster.nodes[1].node_id
    platform.sim.call_at(
        10.7, lambda: platform.cluster.fail_node(victim, platform.sim.now)
    )


def _s3_endpoint(platform: CanaryPlatform) -> None:
    """Every checkpoint goes to the S3 custom endpoint (§IV-C-4)."""
    platform.router.custom_endpoint = "s3"
    platform.submit_batch()


def _tenant(name: str, workload: str, rate: float) -> Tenant:
    return Tenant(
        name=name,
        arrivals=PoissonArrivals(rate_per_s=rate),
        workloads=(workload,),
    )


#: name -> (scenario, optional set-up replacing ``submit_batch``)
SCENARIOS: dict[str, tuple[ScenarioConfig, Optional[Callable]]] = {
    "errors": (BASE, None),
    "interval-2": (BASE.with_(checkpoint_interval=2), None),
    "node-failures-flush-lag": (
        BASE.with_(node_failure_count=2, checkpoint_flush_lag_s=2.0), None,
    ),
    "local-spill-node-failure": (
        BASE.with_(error_rate=0.1, num_nodes=4), _local_spill_crash,
    ),
    "stragglers-zombie-partition": (
        BASE.with_(
            node_failure_count=1,
            chaos=ChaosConfig(
                stragglers=3, straggler_window=(3.0, 20.0),
                straggler_duration_s=6.0, zombies=1,
                zombie_window=(6.0, 12.0), zombie_kill_after_s=15.0,
                partitions=1, partition_window=(8.0, 14.0),
            ),
            detection=DetectionConfig(),
            backoff=BackoffPolicy(),
        ),
        None,
    ),
    "tier-brownouts": (
        BASE.with_(
            node_failure_count=1,
            chaos=ChaosConfig(
                tier_brownouts=(
                    TierBrownout(tier="kv", start_s=4.0, duration_s=5.0,
                                 mode="refuse"),
                    TierBrownout(tier="nfs", start_s=6.0, duration_s=8.0,
                                 mode="slow", latency_multiplier=8.0),
                ),
            ),
            backoff=BackoffPolicy(),
        ),
        None,
    ),
    "adaptive-no-fabric": (
        BASE.with_(
            workload="dl-training",
            error_rate=0.25,
            num_nodes=8,
            chaos=default_chaos_preset(),
            detection=DetectionConfig(),
            backoff=BackoffPolicy(),
            adaptive=AdaptiveConfig(),
        ),
        None,
    ),
    "traffic-autoscale": (
        BASE.with_(
            workload="micro-python",
            error_rate=0.05,
            num_nodes=4,
            traffic=TrafficConfig(
                tenants=(
                    _tenant("py", "micro-python", 3.0),
                    _tenant("web", "web-service", 2.0),
                ),
                duration_s=60.0,
                admission=AdmissionConfig(queue_shed_depth=16),
            ),
            autoscale=AutoscaleConfig(min_nodes=4, max_nodes=8),
        ),
        None,
    ),
    "prediction-migration": (
        BASE.with_(
            node_failure_count=2, node_failure_precursors=3,
            prediction=True,
        ),
        None,
    ),
    "retry": (BASE.with_(strategy="retry"), None),
    "active-standby": (BASE.with_(strategy="active-standby"), None),
    "request-replication": (BASE.with_(strategy="request-replication"), None),
    "cloning": (
        BASE.with_(strategy="cloning", cloning=CloningConfig(clones=2)), None,
    ),
    # Stragglers unfold clones whose timelines tie to the last bit.
    "cloning-chaos": (
        BASE.with_(
            strategy="cloning",
            cloning=CloningConfig(clones=2),
            error_rate=0.1,
            node_failure_count=1,
            chaos=ChaosConfig(
                stragglers=3, straggler_window=(3.0, 20.0),
                straggler_duration_s=6.0, zombies=1,
                zombie_window=(6.0, 12.0), zombie_kill_after_s=15.0,
            ),
            detection=DetectionConfig(),
            backoff=BackoffPolicy(),
        ),
        None,
    ),
    "cloning-10gbe": (
        FABRIC.with_(strategy="cloning", cloning=CloningConfig(clones=2)),
        None,
    ),
    # Lost, frozen and slowed clones beside folded siblings.
    "cloning-10gbe-chaos": (
        FABRIC.with_(
            strategy="cloning",
            cloning=CloningConfig(clones=2),
            node_failure_count=1,
            chaos=ChaosConfig(
                stragglers=3, straggler_window=(3.0, 20.0),
                straggler_duration_s=6.0, zombies=1,
                zombie_window=(6.0, 12.0), zombie_kill_after_s=15.0,
            ),
            detection=DetectionConfig(),
            backoff=BackoffPolicy(),
        ),
        None,
    ),
    "request-replication-10gbe": (
        FABRIC.with_(strategy="request-replication"), None,
    ),
    "retry-10gbe": (FABRIC.with_(strategy="retry"), None),
    "active-standby-10gbe": (FABRIC.with_(strategy="active-standby"), None),
    # A zombie freezes folded attempts; their timeout recovers them
    # long before the hard kill.
    "zombie-timeout": (
        BASE.with_(
            error_rate=0.0,
            chaos=ChaosConfig(
                zombies=1, zombie_window=(6.0, 12.0),
                zombie_kill_after_s=120.0,
            ),
            limits=PlatformLimits(max_function_timeout_s=40.0),
        ),
        None,
    ),
    "custom-endpoint-s3": (BASE, _s3_endpoint),
    # A concurrency limit of one job runs the four jobs in waves, so
    # later waves start on the parked containers of earlier ones.
    "warm-reuse": (
        BASE.with_(
            jobs=4,
            reuse_containers=True,
            limits=PlatformLimits(max_concurrent_invocations=10),
        ),
        None,
    ),
}


def _refuse_fold(patch) -> None:
    """Run the stepwise reference path: no attempt ever folds."""
    patch.setattr(FunctionExecution, "_can_fold", lambda self, attempt: False)


def _rows(platform: CanaryPlatform) -> dict[str, frozenset]:
    return {
        name: frozenset(tuple(sorted(row.items())) for row in table.select())
        for name, table in vars(platform.database).items()
    }


def _spans(tracer: Tracer) -> Counter:
    spans = tracer.spans()
    names = {span.span_id: (span.kind, span.name) for span in spans}
    return Counter(
        (
            span.kind, span.name, span.start, span.end,
            names.get(span.parent_id),
            tuple(sorted(span.attrs.items())),
        )
        for span in spans
    )


def _executions(platform: CanaryPlatform) -> dict[str, tuple]:
    """What the summary and the latency readers take from each execution.

    The next checkpoint id stands in for the function's checkpoint count.
    """
    return {
        execution.function_id: (
            execution.completed_at,
            execution.checkpoint_time_s,
            execution.latency,
            [
                (a.via, a.from_state, a.completed_states, a.container.ready_at)
                for a in execution.attempts
            ],
            platform.ids.checkpoint_id(execution.function_id),
        )
        for job in platform.jobs.values()
        for execution in job.executions
    }


def _outcome(
    name: str,
    *,
    fold: bool,
    monkeypatch,
    step_s: Optional[float] = None,
    traced: bool = False,
    seed: int = 3,
) -> dict:
    scenario, setup = SCENARIOS[name]
    tracer = Tracer() if traced else None
    with monkeypatch.context() as patch:
        if not fold:
            _refuse_fold(patch)
        platform = CanaryPlatform(scenario, seed=seed, tracer=tracer)
        if setup is not None:
            setup(platform)
        elif scenario.traffic is None:
            platform.submit_batch()
        if step_s is None:
            platform.run()
        else:
            until = 0.0
            while platform.sim.pending:
                until += step_s
                platform.run(until=until)
    assert not platform.folded
    return {
        "summary": asdict(platform.summary()),
        "executions": _executions(platform),
        "failures": [asdict(event) for event in platform.metrics.failures],
        "rows": _rows(platform),
        "spans": _spans(tracer) if traced else None,
        "pushes": collect_engine_stats(platform.sim).pushes,
    }


def _assert_same(folded: dict, stepwise: dict) -> None:
    for key in ("summary", "executions", "failures", "rows", "spans"):
        assert folded[key] == stepwise[key], key


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_fold_matches_stepwise_exactly(name, monkeypatch):
    # Fabric rows also compare spans: their folded attempts emit
    # backdated ones beside live flows.
    traced = SCENARIOS[name][0].network is not None
    folded = _outcome(name, fold=True, monkeypatch=monkeypatch, traced=traced)
    stepwise = _outcome(
        name, fold=False, monkeypatch=monkeypatch, traced=traced
    )
    assert folded["summary"]["completed"] > 0
    _assert_same(folded, stepwise)
    # The fold really ran: it saves engine events in every scenario.
    assert folded["pushes"] < stepwise["pushes"]


def test_frozen_attempts_keep_their_timeout(monkeypatch):
    """A folded segment that would finish before its deadline pushes no
    timeout; freezing it must push one."""
    failures = _outcome(
        "zombie-timeout", fold=True, monkeypatch=monkeypatch
    )["failures"]
    assert failures
    assert {event["reason"] for event in failures} == {"timeout"}


def test_unfolded_clones_keep_their_tie_order(monkeypatch):
    """Clones on identical timelines finish at the same instant, and the
    one whose events were scheduled first wins.  Stragglers unfold the
    copies at different times; the winner must not change."""
    folded, stepwise = (
        _outcome(
            "cloning-chaos", fold=fold, monkeypatch=monkeypatch, traced=True,
            seed=0,
        )
        for fold in (True, False)
    )
    _assert_same(folded, stepwise)
    ends = Counter(
        (span[4], span[3]) for span in folded["spans"] if span[0] == "exec"
    )
    assert max(ends.values()) >= 2  # some copies did tie


@pytest.mark.parametrize("name", ["errors", "stragglers-zombie-partition"])
def test_stepped_run_until_matches_stepwise(name, monkeypatch):
    folded = _outcome(name, fold=True, monkeypatch=monkeypatch, step_s=0.7)
    stepwise = _outcome(name, fold=False, monkeypatch=monkeypatch)
    _assert_same(folded, stepwise)


def test_run_until_materialises_in_flight_window(monkeypatch):
    """After ``run(until=T)`` an attempt's progress reads as stepwise."""
    seen = []
    for fold in (True, False):
        with monkeypatch.context() as patch:
            if not fold:
                _refuse_fold(patch)
            platform = CanaryPlatform(BASE, seed=3)
            platform.submit_batch()
            views = []
            for until in (4.0, 6.5, 9.25, 13.0):
                platform.run(until=until)
                views.append([
                    (
                        attempt.completed_states,
                        attempt.state_started_at,
                        attempt.state_duration,
                        attempt.continuous_progress(until),
                    )
                    for job in platform.jobs.values()
                    for execution in job.executions
                    for attempt in execution.live_attempts()
                ])
                views.append(platform.checkpointer.checkpoints_taken)
            seen.append(views)
    assert seen[0] == seen[1]


def test_traced_run_matches_stepwise(monkeypatch):
    folded = _outcome(
        "node-failures-flush-lag", fold=True, monkeypatch=monkeypatch,
        traced=True,
    )
    stepwise = _outcome(
        "node-failures-flush-lag", fold=False, monkeypatch=monkeypatch,
        traced=True,
    )
    assert sum(folded["spans"].values()) > 100
    _assert_same(folded, stepwise)


class TestAnalyticOracle:
    """One failure-free TINY function alone on one node, both paths.

    Completion is ``ready + fetch + sum(d_k + c_k) + finish``, summed in
    the engine's order: each ``call_in`` adds its delay to the time of
    the event that scheduled it.  ``d_k`` is the node-scaled state
    duration and ``c_k`` the charge of a KV checkpoint (serialisation
    plus the tier write), taken after every ``interval``-th state.
    """

    def _run(
        self, monkeypatch, *, fold: bool, interval=None, until=None,
        timeout_s=None,
    ):
        with monkeypatch.context() as patch:
            if not fold:
                _refuse_fold(patch)
            platform = CanaryPlatform(
                ScenarioConfig(num_nodes=1, strategy="canary"), seed=0
            )
            if interval is not None:
                platform.checkpointer.global_interval = interval
            job = platform.submit_job(
                JobRequest(workload=TINY, num_functions=1, timeout_s=timeout_s)
            )
            platform.run(until=until)
        return platform, job.executions[0]

    def _expected(self, platform, execution, interval: int):
        node = platform.cluster.nodes[0]
        size = TINY.checkpoint_size_bytes
        charge = TINY.serialize_overhead_s + platform.tiers.write_seconds(
            platform.tiers.get("kv"), size
        )
        ready_at = execution.attempts[0].container.ready_at
        t = ready_at + node.scale_duration(TINY.input_fetch_s)
        ends, checkpoint_time = [], 0.0
        for k in range(TINY.n_states):
            t += node.scale_duration(float(execution._base_durations[k]))
            ends.append(t)
            if (k + 1) % interval == 0:
                t += charge
                checkpoint_time += charge
        t += node.scale_duration(TINY.finish_s)
        return t, TINY.n_states // interval, checkpoint_time, ends, charge

    @pytest.mark.parametrize("fold", [True, False])
    @pytest.mark.parametrize("interval", [None, 2])
    def test_completion_and_checkpoint_charges(
        self, monkeypatch, fold, interval
    ):
        platform, execution = self._run(
            monkeypatch, fold=fold, interval=interval
        )
        done_at, count, checkpoint_time, _, _ = self._expected(
            platform, execution, interval or 1
        )
        assert execution.completed_at == done_at
        assert platform.summary().makespan_s == done_at
        assert platform.checkpointer.checkpoints_taken == count
        assert execution.checkpoint_time_s == checkpoint_time

    @pytest.mark.parametrize("fold", [True, False])
    def test_run_until_a_boundary_counts_it(self, monkeypatch, fold):
        """``run(until=T)`` fires events at T, so a state ending exactly
        at T is complete and its checkpoint is in flight."""
        platform, execution = self._run(monkeypatch, fold=True)
        _, _, _, ends, charge = self._expected(platform, execution, 1)
        platform, execution = self._run(monkeypatch, fold=fold, until=ends[1])
        (attempt,) = execution.live_attempts()
        assert attempt.completed_states == 2
        assert attempt.state_started_at is None
        assert platform.checkpointer.checkpoints_taken == 2
        platform.run(until=ends[1] + charge)
        assert attempt.state_started_at == ends[1] + charge
        platform.run()
        assert execution.completed

    @pytest.mark.parametrize("fold", [True, False])
    def test_timeout_at_the_finish_fires_first(self, monkeypatch, fold):
        """A deadline equal to the completion time kills the attempt (its
        timeout is pushed before the event that reaches it); one a tick
        later does not, and no timeout event is needed then."""
        platform, execution = self._run(monkeypatch, fold=True)
        done_at, *_ = self._expected(platform, execution, 1)
        ready_at = execution.attempts[0].container.ready_at
        timeout = done_at - ready_at
        while ready_at + timeout < done_at:
            timeout = math.nextafter(timeout, math.inf)
        while ready_at + timeout > done_at:
            timeout = math.nextafter(timeout, 0.0)
        assert ready_at + timeout == done_at
        platform, execution = self._run(
            monkeypatch, fold=fold, timeout_s=timeout
        )
        (failure,) = platform.metrics.failures[:1]
        assert (failure.reason, failure.kill_time) == ("timeout", done_at)
        assert execution.attempts[0].completed_states == TINY.n_states
        late = timeout
        while ready_at + late == done_at:
            late = math.nextafter(late, math.inf)
        platform, execution = self._run(monkeypatch, fold=fold, timeout_s=late)
        assert platform.metrics.failures == []
        assert execution.completed_at == done_at
        pushes = collect_engine_stats(platform.sim).pushes
        platform, _ = self._run(monkeypatch, fold=fold)
        assert collect_engine_stats(platform.sim).pushes == pushes


#: Jittered states, so a boundary read off the wrong entry shows.
JITTERED = WorkloadProfile(
    name="jittered",
    runtime=RuntimeKind.PYTHON,
    n_states=9,
    state_duration_s=1.5,
    state_jitter=0.3,
    checkpoint_size_bytes=64 * KiB,
    serialize_overhead_s=0.01,
    finish_s=0.1,
    memory_bytes=mb(256),
)


def _count_walks(patch) -> list[int]:
    """Count fold plans, and the plans some reader walked
    (``FunctionExecution.materialise``), into the returned cells."""
    counts = [0, 0]
    walked: set = set()
    init, materialise = FoldPlan.__init__, FunctionExecution.materialise

    def counted_init(self, *args) -> None:
        counts[0] += 1
        init(self, *args)

    def counted_materialise(self, attempt, *args, **kwargs) -> None:
        if attempt.plan not in walked:
            walked.add(attempt.plan)
            counts[1] += 1
        materialise(self, attempt, *args, **kwargs)

    patch.setattr(FoldPlan, "__init__", counted_init)
    patch.setattr(FunctionExecution, "materialise", counted_materialise)
    return counts


def _straggle(platform, attempt) -> None:
    """What a straggler window's start does to the attempt's node."""
    node = attempt.container.node
    platform.unfold(node=node)
    node.chaos_speed_factor *= 0.5


#: reader name -> what it does to the lone live attempt at the read time
#: (None: ``run(until=T)`` stops there).
READERS: dict[str, Optional[Callable]] = {
    "kill": lambda platform, attempt: platform.controller.kill_container(
        attempt.container, "test"
    ),
    "run-until": None,
    "straggler": _straggle,
    "cadence": lambda platform, attempt: setattr(
        platform.checkpointer, "global_interval", 4
    ),
}


class TestMidSegmentReaders:
    """Something reads a lone folded attempt mid-segment, in a state or
    in a checkpoint.  Only then is its plan's chain walked, and the
    boundaries, progress and checkpoint charges read exactly as stepwise,
    at the read and to the end of the run."""

    def _platform(self):
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=1, strategy="canary"), seed=0
        )
        platform.checkpointer.global_interval = 2
        job = platform.submit_job(JobRequest(workload=JITTERED, num_functions=1))
        return platform, job.executions[0]

    def _read_time(self, where: str) -> float:
        """Mid-window of state 4, or of the checkpoint after state 3."""
        platform, execution = self._platform()
        platform.run()
        node = platform.cluster.nodes[0]
        charge = JITTERED.serialize_overhead_s + platform.tiers.write_seconds(
            platform.tiers.get("kv"), JITTERED.checkpoint_size_bytes
        )
        t = execution.attempts[0].container.ready_at
        for k in range(4):
            t += node.scale_duration(float(execution._base_durations[k]))
            if (k + 1) % 2 == 0:
                t += charge
        if where == "checkpoint":
            return t - charge / 2
        return t + node.scale_duration(float(execution._base_durations[4])) / 2

    def _outcome(self, monkeypatch, reader: str, at: float, *, fold: bool):
        with monkeypatch.context() as patch:
            if not fold:
                _refuse_fold(patch)
            walks = _count_walks(patch)
            platform, execution = self._platform()
            seen: dict = {}

            def read() -> None:
                (attempt,) = execution.live_attempts()
                if READERS[reader] is not None:
                    seen["walked before"] = walks[1]
                    READERS[reader](platform, attempt)
                seen["view"] = (
                    attempt.completed_states,
                    attempt.state_started_at,
                    attempt.state_duration,
                    attempt.continuous_progress(at),
                    execution.checkpoint_time_s,
                    platform.checkpointer.checkpoints_taken,
                )
                seen["walked at read"] = walks[1]

            if READERS[reader] is None:
                platform.run(until=at)
                read()
            else:
                platform.sim.call_at(at, read)
            platform.run()
        seen["end"] = (
            execution.completed_at,
            execution.checkpoint_time_s,
            [(a.via, a.from_state, a.completed_states) for a in execution.attempts],
            platform.checkpointer.checkpoints_taken,
            [asdict(event) for event in platform.metrics.failures],
        )
        seen["plans"], seen["walked"] = walks
        return seen

    @pytest.mark.parametrize("where", ["state", "checkpoint"])
    @pytest.mark.parametrize("reader", list(READERS))
    def test_reader_sees_stepwise_boundaries(self, monkeypatch, reader, where):
        at = self._read_time(where)
        folded = self._outcome(monkeypatch, reader, at, fold=True)
        stepwise = self._outcome(monkeypatch, reader, at, fold=False)
        assert folded["view"] == stepwise["view"]
        assert folded["end"] == stepwise["end"]
        assert folded["view"][0] == 4  # the read fell after state 3
        # Only the read walked a plan; any refolded rest completed unread.
        assert folded.get("walked before", 0) == 0
        assert folded["walked at read"] == folded["walked"] == 1
        assert stepwise["plans"] == 0
