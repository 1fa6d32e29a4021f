"""Concurrency stress tests: the executor's checkpoint path hammered from
many threads.

The simulated platform is single-threaded, but the real executor is not:
``run_job`` drives save/restore/drop through one Checkpointing Module and
its lock from a thread pool while the fault plan injects kills at state
boundaries.  These tests exist to catch lock regressions (lost updates,
broken chains, leaked KV bytes) that the single-threaded tests can never
see.
"""

import sys
import threading
import time

from repro.common.units import KiB
from repro.executor.context import CheckpointContext
from repro.executor.local import FaultPlan, LocalExecutor
from tests.conftest import build_checkpointer

N_THREADS = 8
N_ROUNDS = 60
#: The module's latest-n depth at the executor's 1 s state period: 3 for
#: an inline payload, 2 for a spilled one.
INLINE_DEPTH = 3
SPILLED_DEPTH = 2


class TestStoreThreadHammer:
    def test_save_restore_drop_hammer(self):
        """Many threads share few function ids; invariants must hold."""
        module = build_checkpointer(db_limit_bytes=4 * KiB)
        lock = threading.Lock()
        barrier = threading.Barrier(N_THREADS)
        errors: list[BaseException] = []

        def worker(tid: int) -> None:
            fid = f"fn-{tid % 4}"  # deliberate cross-thread sharing
            ctx = CheckpointContext(fid, module, lock)
            try:
                barrier.wait()
                for i in range(N_ROUNDS):
                    # 1.6 KB to 7.9 KB pickled: both sides of the 4 KiB limit.
                    payload = [tid] * (800 + (i % 50) * 64)
                    ctx.save(i, payload)
                    with lock:
                        assert module.chain_length(fid) <= INLINE_DEPTH
                    restored = ctx.restore()
                    # Another thread may drop between save and restore;
                    # what we must never see is a torn record.
                    if restored is not None:
                        state, value = restored
                        assert isinstance(state, int)
                        assert isinstance(value, list) and len(set(value)) == 1
                    if i % 15 == 14:
                        with lock:
                            module.drop_function(fid)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(N_THREADS)
        ]
        # Switch threads as often as the interpreter allows, so a missing
        # lock around a check-then-act shows up as a lost update.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert module.checkpoints_taken == N_THREADS * N_ROUNDS
        for tid in range(4):
            assert module.chain_length(f"fn-{tid}") <= INLINE_DEPTH
        # Dropping everything must return the KV store to empty: a leak
        # here means save/drop raced and orphaned an entry.
        for tid in range(4):
            module.drop_function(f"fn-{tid}")
        assert module.router.kv.used_bytes == 0.0
        assert not module.router._spilled

    def test_record_state_runs_under_the_lock(self):
        """A detector wrapped around ``record_state`` lingers inside it:
        with ``save`` holding the lock, no second thread ever arrives."""
        module = build_checkpointer()
        record_state = module.record_state
        lock = threading.Lock()
        guard = threading.Lock()
        inside = [0, 0]  # threads in record_state now, and at most
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def detecting(**kwargs):
            with guard:
                inside[0] += 1
                inside[1] = max(inside[1], inside[0])
            try:
                time.sleep(0.002)
                return record_state(**kwargs)
            finally:
                with guard:
                    inside[0] -= 1

        module.record_state = detecting

        def worker(tid: int) -> None:
            ctx = CheckpointContext(f"fn-{tid}", module, lock)
            try:
                barrier.wait()
                for i in range(10):
                    ctx.save(i, [tid, i])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert module.checkpoints_taken == 40
        assert inside == [0, 1]

    def test_spill_path_under_contention(self):
        """Oversized payloads spill; concurrent restores must see them."""
        module = build_checkpointer(db_limit_bytes=1 * KiB)
        lock = threading.Lock()
        errors: list[BaseException] = []

        def worker(tid: int) -> None:
            fid = f"big-{tid}"
            ctx = CheckpointContext(fid, module, lock)
            try:
                for i in range(20):
                    ctx.save(i, list(range(2_000)))
                    with lock:
                        assert not module.latest(fid).ref.inline
                    state, payload = ctx.restore()
                    assert state == i
                    assert payload == list(range(2_000))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tid,)) for tid in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert module.checkpoints_taken == 6 * 20
        for tid in range(6):
            assert module.chain_length(f"big-{tid}") == SPILLED_DEPTH
        assert len(module.router._spilled) == 6 * SPILLED_DEPTH


class TestExecutorChaos:
    def test_run_job_under_fault_injection(self):
        """Full pool + kill schedule: every kill fires, nothing leaks."""
        kills = {f"f{i}": [1, 3] for i in range(0, 12, 2)}
        plan = FaultPlan(kills)
        executor = LocalExecutor(
            strategy="canary", fault_plan=plan, max_workers=6
        )

        def make_fn(n_states: int):
            def fn(ctx: CheckpointContext):
                acc = []
                start = 0
                restored = ctx.restore()
                if restored is not None:
                    start = restored[0] + 1
                    acc = list(restored[1])
                for i in range(start, n_states):
                    acc.append(i)
                    ctx.save(i, acc)
                return acc

            return fn

        functions = {f"f{i}": make_fn(5) for i in range(12)}
        results = executor.run_job(functions)
        assert set(results) == set(functions)
        assert all(r.value == [0, 1, 2, 3, 4] for r in results.values())
        for fid, scheduled in kills.items():
            assert results[fid].kills == len(scheduled)
        # Fire-or-expire: a finished chaos run leaves no stuck kills.
        assert plan.pending_kills() == {}
        assert plan.kills_fired == sum(len(v) for v in kills.values())
        # Completed functions dropped their chains.
        assert executor.checkpointer.router.kv.used_bytes == 0.0
        assert not executor.checkpointer.router._spilled
