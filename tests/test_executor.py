"""Tests for the real local executor: checkpoint context, recovery semantics
and the Checkpointing Module's Algorithm 1 measured on the real workloads."""

import collections
import pickle
import threading

import pytest

from repro.checkpoint.module import CheckpointingModule
from repro.common.units import KiB
from repro.executor.context import CheckpointContext
from repro.executor.local import FaultPlan, JobExecutionError, LocalExecutor
from repro.workloads.compression import make_compression
from repro.workloads.dl import make_dl_training
from repro.workloads.graph_bfs import make_bfs
from repro.workloads.spark_mining import make_diversity_job
from repro.workloads.webservice import make_web_service
from tests.conftest import build_checkpointer


def make_context(function_id="f1", **kv_kwargs):
    module = build_checkpointer(**kv_kwargs)
    lock = threading.Lock()
    return CheckpointContext(function_id, module, lock), module, lock


def counting_function(n_states=5, log=None):
    """A simple stateful function: accumulates state indices."""

    def fn(ctx: CheckpointContext):
        acc = []
        start = 0
        restored = ctx.restore()
        if restored is not None:
            last, payload = restored
            start = last + 1
            acc = list(payload)
        for i in range(start, n_states):
            acc.append(i)
            if log is not None:
                log.append(i)
            ctx.save(i, acc)
        return acc

    return fn


class TestRealCheckpointStore:
    """The executor's checkpoint store: a context over the module."""

    def test_save_restore_roundtrip(self):
        ctx, _, _ = make_context()
        ctx.save(0, {"x": [1, 2, 3]})
        state, payload = ctx.restore()
        assert state == 0
        assert payload == {"x": [1, 2, 3]}
        assert ctx.restored_from == 0

    def test_restore_returns_latest(self):
        ctx, _, _ = make_context()
        for i in range(4):
            ctx.save(i, i * 10)
        state, payload = ctx.restore()
        assert (state, payload) == (3, 30)

    def test_retention_evicts_oldest(self):
        ctx, module, _ = make_context()
        for i in range(5):
            ctx.save(i, i)
        assert module.chain_length("f1") == 3
        assert [r.state_index for r in module._per_function["f1"]] == [2, 3, 4]

    def test_restore_unknown_function(self):
        ctx, _, _ = make_context("ghost")
        assert ctx.restore() is None
        assert ctx.restored_from is None

    def test_drop(self):
        ctx, module, lock = make_context(db_limit_bytes=1 * KiB)
        ctx.save(0, "x")
        ctx.save(1, list(range(10_000)))
        assert module.router._spilled
        with lock:
            module.drop_function("f1")
        assert ctx.restore() is None
        assert module.router.kv.used_bytes == 0.0
        assert not module.router._spilled

    def test_large_payload_spills(self):
        ctx, module, _ = make_context(db_limit_bytes=1 * KiB)
        blob = list(range(10_000))
        ctx.save(0, blob)
        record = module.latest("f1")
        assert not record.ref.inline
        assert module.router.read(record.ref) == pickle.dumps(
            blob, protocol=pickle.HIGHEST_PROTOCOL
        )
        state, payload = ctx.restore()
        assert (state, payload) == (0, blob)


class TestFaultPlan:
    def test_each_kill_fires_once(self):
        plan = FaultPlan({"f1": [2]})
        assert not plan.should_kill("f1", 0)
        assert plan.should_kill("f1", 2)
        assert not plan.should_kill("f1", 2)
        assert plan.kills_fired == 1

    def test_kills_fire_in_order(self):
        plan = FaultPlan({"f1": [3, 1]})
        assert plan.should_kill("f1", 1)
        assert plan.should_kill("f1", 3)

    def test_unknown_function_never_killed(self):
        assert not FaultPlan({"f1": [0]}).should_kill("f2", 0)

    def test_skipped_boundary_fires_at_next_consult(self):
        # A restore can skip past the scheduled boundary (e.g. a kill at
        # state 2 when the function resumes at state 3); the kill must
        # fire at the next consulted boundary instead of sticking forever.
        plan = FaultPlan({"f1": [2]})
        assert plan.should_kill("f1", 4)
        assert plan.pending_kills() == {}
        assert plan.kills_fired == 1

    def test_one_kill_per_consult(self):
        plan = FaultPlan({"f1": [1, 2]})
        assert plan.should_kill("f1", 5)
        assert plan.should_kill("f1", 5)
        assert not plan.should_kill("f1", 5)
        assert plan.kills_fired == 2

    def test_pending_kills_reports_remaining(self):
        plan = FaultPlan({"f1": [2, 5], "f2": [1]})
        assert plan.pending_kills() == {"f1": (2, 5), "f2": (1,)}
        assert plan.should_kill("f1", 3)
        assert plan.pending_kills() == {"f1": (5,), "f2": (1,)}

    def test_pending_kills_empty_plan(self):
        assert FaultPlan().pending_kills() == {}


class TestLocalExecutorCanary:
    def test_failure_free_run(self):
        executor = LocalExecutor(strategy="canary")
        result = executor.run_function("f1", counting_function())
        assert result.value == [0, 1, 2, 3, 4]
        assert result.attempts == 1
        assert result.kills == 0
        assert not result.recovered_via_checkpoint

    def test_kill_and_resume_from_checkpoint(self):
        log = []
        executor = LocalExecutor(
            strategy="canary", fault_plan=FaultPlan({"f1": [3]})
        )
        result = executor.run_function("f1", counting_function(log=log))
        assert result.value == [0, 1, 2, 3, 4]
        assert result.attempts == 2
        assert result.kills == 1
        assert result.recovered_via_checkpoint
        # States 0..2 were checkpointed before the kill at 3; only 3 is
        # recomputed (plus 4 which never ran).
        assert log == [0, 1, 2, 3, 3, 4]

    def test_result_identical_with_and_without_failures(self):
        clean = LocalExecutor(strategy="canary").run_function(
            "f1", counting_function()
        )
        faulty = LocalExecutor(
            strategy="canary", fault_plan=FaultPlan({"f1": [1, 3]})
        ).run_function("f1", counting_function())
        assert clean.value == faulty.value
        assert faulty.attempts == 3

    def test_checkpoints_dropped_after_completion(self):
        executor = LocalExecutor(strategy="canary")
        executor.run_function("f1", counting_function())
        assert executor.checkpointer.checkpoints_taken == 5
        assert executor.checkpointer.latest("f1") is None
        assert executor.checkpointer.router.kv.used_bytes == 0.0


class TestLocalExecutorRetry:
    def test_kill_restarts_from_scratch(self):
        log = []
        executor = LocalExecutor(
            strategy="retry", fault_plan=FaultPlan({"f1": [3]})
        )
        result = executor.run_function("f1", counting_function(log=log))
        assert result.value == [0, 1, 2, 3, 4]
        assert result.attempts == 2
        assert not result.recovered_via_checkpoint
        # Everything before the kill is recomputed.
        assert log == [0, 1, 2, 3, 0, 1, 2, 3, 4]

    def test_retry_recomputes_more_than_canary(self):
        def run(strategy):
            log = []
            LocalExecutor(
                strategy=strategy, fault_plan=FaultPlan({"f1": [4]})
            ).run_function("f1", counting_function(n_states=6, log=log))
            return len(log)

        assert run("canary") < run("retry")


class TestLocalExecutorMisc:
    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            LocalExecutor(strategy="bogus")

    def test_max_attempts_guard(self, monkeypatch):
        def always_dies(ctx):
            ctx.guard(0)
            return "unreachable"

        class KillForever:
            kills_fired = 0

            def should_kill(self, function_id, state_index):
                return True

        monkeypatch.setattr("repro.executor.local.MAX_ATTEMPTS", 3)
        executor = LocalExecutor(strategy="canary")
        executor.fault_plan = KillForever()
        with pytest.raises(RuntimeError, match="exceeded 3 attempts"):
            executor.run_function("f1", always_dies)

    def test_run_job_threads(self):
        executor = LocalExecutor(
            strategy="canary",
            fault_plan=FaultPlan({"f1": [2], "f3": [0]}),
            max_workers=4,
        )
        functions = {
            f"f{i}": counting_function(n_states=4) for i in range(6)
        }
        results = executor.run_job(functions)
        assert set(results) == set(functions)
        assert all(r.value == [0, 1, 2, 3] for r in results.values())
        assert results["f1"].kills == 1
        assert results["f3"].kills == 1
        assert results["f0"].kills == 0

    def test_run_job_empty(self):
        assert LocalExecutor().run_job({}) == {}

    def test_sparse_checkpoints_still_drain_fault_plan(self):
        # The function only hits boundaries 0, 2, 4; a kill scheduled at
        # 3 fires at boundary 4 (fire-or-expire), and the run ends with
        # an empty plan instead of a silently skipped kill.
        def sparse(ctx):
            acc = []
            start = 0
            restored = ctx.restore()
            if restored is not None:
                start = restored[0] + 1
                acc = list(restored[1])
            for i in range(start, 6):
                acc.append(i)
                if i % 2 == 0:
                    ctx.save(i, acc)
            return acc

        plan = FaultPlan({"f1": [3]})
        executor = LocalExecutor(strategy="canary", fault_plan=plan)
        result = executor.run_function("f1", sparse)
        assert result.value == [0, 1, 2, 3, 4, 5]
        assert result.kills == 1
        assert plan.pending_kills() == {}


class TestRunJobPartialFailure:
    def test_one_failure_keeps_other_results(self):
        executor = LocalExecutor(strategy="canary", max_workers=4)

        def boom(ctx):
            raise ValueError("application bug")

        functions = {
            f"f{i}": counting_function(n_states=3) for i in range(5)
        }
        functions["f-bad"] = boom
        with pytest.raises(JobExecutionError) as excinfo:
            executor.run_job(functions)
        error = excinfo.value
        assert set(error.failures) == {"f-bad"}
        assert isinstance(error.failures["f-bad"], ValueError)
        assert set(error.results) == {f"f{i}" for i in range(5)}
        assert all(
            r.value == [0, 1, 2] for r in error.results.values()
        )
        assert "1 of 6 functions failed" in str(error)
        assert "f-bad" in str(error)

    def test_multiple_failures_all_reported(self):
        executor = LocalExecutor(strategy="canary", max_workers=2)

        def make_boom(msg):
            def boom(ctx):
                raise RuntimeError(msg)

            return boom

        with pytest.raises(JobExecutionError) as excinfo:
            executor.run_job(
                {
                    "a": make_boom("a died"),
                    "b": counting_function(n_states=2),
                    "c": make_boom("c died"),
                }
            )
        error = excinfo.value
        assert set(error.failures) == {"a", "c"}
        assert set(error.results) == {"b"}


#: The five real workloads at seven checkpointed states each.  On a 1 KiB
#: KV limit, compression and webservice payloads stay inline, dl spills
#: from its first epoch, and graph_bfs and spark_mining cross mid-run.
ALGORITHM1_WORKLOADS = {
    "compression": lambda: make_compression(num_files=7, file_size_bytes=4096),
    "dl": lambda: make_dl_training(epochs=7, dim=160, samples=32),
    "graph_bfs": lambda: make_bfs(num_vertices=1 << 10, checkpoint_every=128),
    "spark_mining": lambda: make_diversity_job(num_counties=280, partitions=7),
    "webservice": lambda: make_web_service(requests=7, queries_per_request=5),
}

#: (workload, strategy, kill at, restored state, states run again,
#:  checkpoints taken, chain length at the kill, newest payload spilled)
ALGORITHM1_ROWS = [
    ("compression", "canary", 1, 0, [1], 7, 1, False),
    ("compression", "canary", 3, 2, [3], 7, 3, False),
    ("compression", "canary", 5, 4, [5], 7, 3, False),
    ("dl", "canary", 1, 0, [1], 7, 1, True),
    ("dl", "canary", 3, 2, [3], 7, 2, True),
    ("dl", "canary", 5, 4, [5], 7, 2, True),
    ("graph_bfs", "canary", 1, 0, [1], 7, 1, False),
    ("graph_bfs", "canary", 3, 2, [3], 7, 2, True),
    ("graph_bfs", "canary", 5, 4, [5], 7, 2, True),
    ("spark_mining", "canary", 1, 0, [1], 7, 1, False),
    ("spark_mining", "canary", 3, 2, [3], 7, 2, True),
    ("spark_mining", "canary", 5, 4, [5], 7, 2, True),
    ("webservice", "canary", 1, 0, [1], 7, 1, False),
    ("webservice", "canary", 3, 2, [3], 7, 3, False),
    ("webservice", "canary", 5, 4, [5], 7, 3, False),
] + [
    (workload, "retry", kill, None, list(range(kill + 1)), 0, 0, False)
    for workload in ALGORITHM1_WORKLOADS
    for kill in (1, 3, 5)
]


class KillRecorder(FaultPlan):
    """One kill of function ``f``; logs every consulted state boundary and,
    at the kill, what the Checkpointing Module holds."""

    def __init__(self, kill_at: int, checkpointer: CheckpointingModule):
        super().__init__({"f": [kill_at]})
        self.checkpointer = checkpointer
        self.visits: collections.Counter[int] = collections.Counter()
        self.taken = self.chain = self.spilled = None

    def should_kill(self, function_id, state_index):
        self.visits[state_index] += 1
        killed = super().should_kill(function_id, state_index)
        if killed:
            self.taken = self.checkpointer.checkpoints_taken
            self.chain = self.checkpointer.chain_length(function_id)
            newest = self.checkpointer.latest(function_id)
            self.spilled = newest is not None and not newest.ref.inline
        return killed


def run_killed_once(workload, strategy, kill_at, *, interval=None):
    executor = LocalExecutor(strategy=strategy)
    executor.checkpointer = module = build_checkpointer(db_limit_bytes=1 * KiB)
    if interval is not None:
        module.set_interval("f", interval)
    plan = executor.fault_plan = KillRecorder(kill_at, module)
    result = executor.run_function("f", ALGORITHM1_WORKLOADS[workload]())
    run_again = sorted(s for s, n in plan.visits.items() if n > 1)
    return result, run_again, plan


class TestAlgorithm1OnRealWorkloads:
    """Cadence, latest-n depth and spill routing of the one Checkpointing
    Module, measured as integers on the real workload code: the depth is 3
    for an inline payload and 2 for a spilled one (the executor passes no
    state period, so the module's 1 s default holds)."""

    @pytest.mark.parametrize(
        "workload,strategy,kill_at,restored,run_again,taken,chain,spilled",
        ALGORITHM1_ROWS,
        ids=[f"{row[0]}-{row[1]}-kill{row[2]}" for row in ALGORITHM1_ROWS],
    )
    def test_kill_once(
        self, workload, strategy, kill_at, restored, run_again, taken,
        chain, spilled,
    ):
        result, measured_again, plan = run_killed_once(
            workload, strategy, kill_at
        )
        assert result.kills == 1
        assert result.restored_states == [None, restored]
        assert measured_again == run_again
        assert plan.checkpointer.checkpoints_taken == taken
        assert (plan.chain, plan.spilled) == (chain, spilled)
        # Latest-n at the kill: min(saves so far, depth of the newest).
        assert plan.chain == min(plan.taken, 2 if plan.spilled else 3)

    def test_interval_two(self):
        # Checkpoints after epochs 1 and 3 before the kill at 5, then 5.
        result, run_again, plan = run_killed_once(
            "dl", "canary", 5, interval=2
        )
        assert result.restored_states == [None, 3]
        assert run_again == [4, 5]
        assert plan.checkpointer.checkpoints_taken == 3
        assert (plan.taken, plan.chain, plan.spilled) == (2, 2, True)
