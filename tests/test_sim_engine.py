"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        fired = []
        q.push(3.0, lambda: fired.append(3))
        q.push(1.0, lambda: fired.append(1))
        q.push(2.0, lambda: fired.append(2))
        times = [q.pop().time for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_same_time_fires_in_scheduling_order(self):
        q = EventQueue()
        for i in range(10):
            q.push(5.0, lambda: None, label=str(i))
        popped = [q.pop().label for _ in range(10)]
        assert popped == [str(i) for i in range(10)]

    def test_rescheduled_event_keeps_its_place_among_ties(self):
        q = EventQueue()
        moved = q.push(9.0, lambda: None, label="moved")
        q.push(5.0, lambda: None, label="later")
        q.cancel(moved)
        q.push(5.0, lambda: None, label="moved", seq=moved.seq)
        q.push(5.0, lambda: None, label="latest")
        assert [q.pop().label for _ in range(3)] == ["moved", "later", "latest"]

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        q.push(1.0, lambda: None, label="keep")
        drop = q.push(0.5, lambda: None, label="drop")
        q.cancel(drop)
        assert len(q) == 1
        assert q.pop().label == "keep"

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.cancel(event)
        q.cancel(event)
        assert len(q) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        q.cancel(first)
        assert q.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_cancel_of_popped_event_skips_heap_bookkeeping(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None, label="a")
        popped = queue.pop()
        assert not popped.in_heap
        live_before = len(queue)
        popped.cancel()  # already out of the heap
        assert popped.cancelled and not popped.active
        assert len(queue) == live_before  # counters untouched
        assert queue.cancelled_pending == 0


class TestEventQueueCompaction:
    def test_peek_time_does_not_mutate_the_heap(self):
        q = EventQueue(compaction_threshold=1000)
        events = [q.push(float(i), lambda: None) for i in range(10)]
        for event in events[1:5]:  # cancel mid-heap entries, keep the top
            q.cancel(event)
        size_before = q.heap_size
        for _ in range(3):
            assert q.peek_time() == 0.0
        assert q.heap_size == size_before

    def test_cancelling_the_top_restores_a_live_top(self):
        q = EventQueue(compaction_threshold=1000)
        first = q.push(1.0, lambda: None)
        second = q.push(2.0, lambda: None)
        q.push(3.0, lambda: None)
        q.cancel(first)
        q.cancel(second)
        # peek is pure, so the invariant must hold eagerly after cancel.
        assert q.peek_time() == 3.0
        assert q.cancelled_pending == 0

    def test_auto_compaction_when_cancelled_majority(self):
        q = EventQueue(compaction_threshold=64)
        # Interleave so cancelled events sit throughout the heap, not on top.
        keep = [q.push(float(2 * i), lambda: None) for i in range(60)]
        drop = [q.push(float(2 * i + 1), lambda: None) for i in range(140)]
        for event in drop:
            q.cancel(event)
        assert q.compactions >= 1
        # Garbage stays bounded: dead entries never exceed half the heap.
        assert q.cancelled_pending * 2 <= q.heap_size
        assert q.heap_size < 200
        assert len(q) == 60
        assert [q.pop().time for _ in range(60)] == [e.time for e in keep]

    def test_no_auto_compaction_below_threshold(self):
        q = EventQueue(compaction_threshold=64)
        drop = [q.push(float(i), lambda: None) for i in range(10)]
        live = q.push(99.0, lambda: None)
        for event in drop[1:]:  # keep the top live event's predecessor dead
            q.cancel(event)
        assert q.compactions == 0
        assert q.pop() is drop[0]
        assert q.pop() is live

    def test_explicit_compact_reports_freed_entries(self):
        q = EventQueue(compaction_threshold=10_000)
        events = [q.push(float(i), lambda: None) for i in range(50)]
        for event in events[10:40]:
            q.cancel(event)
        pending = q.cancelled_pending
        assert pending > 0
        freed = q.compact()
        assert freed == pending
        assert q.cancelled_pending == 0
        assert q.compact() == 0  # idempotent when nothing is cancelled
        remaining = [q.pop().time for _ in range(len(q))]
        assert remaining == sorted(remaining)
        assert len(remaining) == 20

    def test_compaction_preserves_time_and_fifo_order(self):
        q = EventQueue(compaction_threshold=10_000)
        q.push(2.0, lambda: None, label="late")
        q.push(1.0, lambda: None, label="early-a")
        q.push(1.0, lambda: None, label="early-b")
        doomed = [q.push(0.5, lambda: None) for _ in range(5)]
        for event in doomed:
            q.cancel(event)
        q.compact()
        assert [q.pop().label for _ in range(3)] == [
            "early-a", "early-b", "late"
        ]

    def test_event_key_precomputed_and_slots(self):
        q = EventQueue()
        event = q.push(2.5, lambda: None)
        assert event.key == (2.5, event.seq)
        assert not hasattr(event, "__dict__")

    def test_adaptive_threshold_grows_and_decays(self):
        queue = EventQueue(compaction_threshold=8)
        events = [queue.push(float(i), lambda: None) for i in range(64)]
        # Cancel from the back: cancelling the heap top would be pruned
        # eagerly and never build up compaction pressure.
        for event in events[24:]:
            queue.cancel(event)
        assert queue.compactions >= 1
        grown = queue.compaction_threshold
        assert grown >= 8
        # Drain almost everything; cancelling in a now-small heap decays
        # the threshold back toward the floor.
        while queue:
            queue.pop()
        survivor = queue.push(100.0, lambda: None)
        queue.push(101.0, lambda: None)
        queue.cancel(survivor)
        assert queue.compaction_threshold <= grown

    def test_queue_health_counters(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        later = queue.push(2.0, lambda: None)
        queue.cancel(later)  # not the top: stays as heap garbage
        assert queue.pushes == 2
        assert queue.peak_heap_size == 2
        assert queue.cancelled_pending == 1
        assert len(queue) == 1


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.call_at(2.5, lambda: seen.append(sim.now))
        sim.call_at(1.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.0, 2.5]
        assert sim.now == 2.5

    def test_call_in_is_relative(self):
        sim = Simulator()
        seen = []

        def chain():
            seen.append(sim.now)
            if len(seen) < 3:
                sim.call_in(1.5, chain)

        sim.call_in(1.5, chain)
        sim.run()
        assert seen == [1.5, 3.0, 4.5]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_in(-1.0, lambda: None)

    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_handle_cancel_prevents_callback(self):
        sim = Simulator()
        fired = []
        handle = sim.call_at(1.0, lambda: fired.append(1))
        assert handle.active
        handle.cancel()
        assert not handle.active
        sim.run()
        assert fired == []

    def test_handle_inactive_after_firing(self):
        sim = Simulator()
        handle = sim.call_at(1.0, lambda: None)
        sim.run()
        assert not handle.active
        handle.cancel()  # no-op, no error

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.call_at(float(i), lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4

    def test_pending_count(self):
        sim = Simulator()
        handles = [sim.call_at(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending == 5
        handles[0].cancel()
        assert sim.pending == 4

    def test_run_not_reentrant(self):
        sim = Simulator()
        errors = []

        def inner():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.call_at(1.0, inner)
        sim.run()
        assert len(errors) == 1

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: sim.call_in(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_deterministic_trace(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            out = []
            rng = sim.rng.stream("test")

            def step():
                out.append((sim.now, float(rng.uniform())))
                if len(out) < 20:
                    sim.call_in(float(rng.uniform(0.1, 1.0)), step)

            sim.call_in(0.5, step)
            sim.run()
            return out

        assert trace(42) == trace(42)
        assert trace(42) != trace(43)


class TestDrainLoop:
    """run() and step() drain same-instant bursts in the serial total order."""

    def test_run_matches_step_when_callback_cancels_sibling(self):
        def run(use_run):
            sim = Simulator()
            seen = []
            handles = {}
            handles["b"] = None

            def kill_b():
                seen.append("a")
                handles["b"].cancel()

            sim.call_at(1.0, kill_b)
            handles["b"] = sim.call_at(1.0, lambda: seen.append("b"))
            if use_run:
                sim.run()
            else:
                while sim.step():
                    pass
            return seen

        assert run(use_run=True) == run(use_run=False) == ["a"]

    def test_run_equals_stepped_run_on_random_workload(self):
        def simulate(use_run):
            sim = Simulator(seed=9)
            rng = sim.rng.stream("load")
            out = []

            def work(i):
                out.append((round(sim.now, 9), i))
                if i < 150:
                    sim.call_in(float(rng.choice([0.0, 0.1, 0.1])),
                                lambda: work(i + 1))

            sim.call_at(0.0, lambda: work(0))
            if use_run:
                sim.run()
            else:
                while sim.step():
                    pass
            return out

        assert simulate(True) == simulate(False)


class TestEngineStats:
    def test_collect_engine_stats_plain(self):
        from repro.metrics.engine import collect_engine_stats

        sim = Simulator()
        fired = []
        sim.call_in(1.0, lambda: fired.append(1))
        handle = sim.call_in(2.0, lambda: fired.append(2))
        handle.cancel()
        sim.run()
        stats = collect_engine_stats(sim)
        assert stats.events_processed == 1
        assert stats.pushes == 2
        assert stats.cancelled_total == 1
        assert stats.pending == 0
        assert stats.peak_heap_size == 2

    def test_traced_run_carries_engine_stats(self):
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import run_traced
        from repro.metrics.engine import format_engine_stats

        scenario = ScenarioConfig(
            workload="dl-training",
            error_rate=0.15,
            num_functions=20,
            node_failure_count=1,
        )
        traced = run_traced(scenario, seed=0)
        assert traced.engine is not None
        assert traced.engine.events_processed > 0
        assert traced.engine.pushes >= traced.engine.events_processed
        assert "event queue" in format_engine_stats(traced.engine)
