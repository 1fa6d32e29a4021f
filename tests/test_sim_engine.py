"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def _drain(sim):
    """Step *sim* until no event is pending."""
    while sim.step():
        pass


class TestEventQueue:
    """The simulator's event heap: order, ties and cancellation."""

    def test_pop_in_time_order(self):
        sim = Simulator()
        fired = []
        for t in (3.0, 1.0, 2.0):
            sim.call_at(t, lambda: fired.append(sim.now))
        _drain(sim)
        assert fired == [1.0, 2.0, 3.0]

    def test_same_time_fires_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.call_at(5.0, lambda i=i: fired.append(i))
        _drain(sim)
        assert fired == list(range(10))

    def test_rescheduled_event_keeps_its_place_among_ties(self):
        sim = Simulator()
        fired = []
        moved = sim.call_at(9.0, lambda: fired.append("stale"))
        sim.call_at(5.0, lambda: fired.append("later"))
        moved.cancel()
        sim.call_at(5.0, lambda: fired.append("moved"), seq=moved.seq)
        sim.call_at(5.0, lambda: fired.append("latest"))
        _drain(sim)
        assert fired == ["moved", "later", "latest"]

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append("keep"))
        drop = sim.call_at(0.5, lambda: fired.append("drop"))
        drop.cancel()
        assert sim.pending == 1
        assert sim.step()
        assert not sim.step()
        assert fired == ["keep"]

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.call_at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled and not event.active
        assert sim.pending == 0
        assert sim.pushes == 1

    def test_cancel_of_popped_event_skips_heap_bookkeeping(self):
        sim = Simulator()
        seen = []

        def fire():
            event.cancel()  # popped and firing: no heap slot to account for
            seen.append(sim.pending)

        event = sim.call_at(1.0, fire)
        sim.call_at(2.0, lambda: None)
        assert sim.step()
        assert seen == [1]
        assert not event.cancelled and not event.active
        assert sim.pending == 1


class TestEventQueueCompaction:
    """One fixed rule: a cancel that leaves dead entries outnumbering live
    ones rebuilds the heap without them."""

    def test_auto_compaction_when_cancelled_majority(self):
        sim = Simulator()
        # Interleave so cancelled events sit throughout the heap, not on top.
        keep = [sim.call_at(float(2 * i), lambda: None) for i in range(60)]
        drop = [sim.call_at(float(2 * i + 1), lambda: None)
                for i in range(140)]
        for event in reversed(drop):
            event.cancel()
            dead = len(sim._heap) - sim.pending
            assert dead <= sim.pending
        assert len(sim._heap) <= 120
        assert sim.pending == 60
        fired = []
        while sim.step():
            fired.append(sim.now)
        assert fired == [event.time for event in keep]

    def test_cancelling_the_top_restores_a_live_top(self):
        sim = Simulator()
        first = sim.call_at(1.0, lambda: None)
        second = sim.call_at(2.0, lambda: None)
        for t in (3.0, 4.0, 5.0):
            sim.call_at(t, lambda: None)
        first.cancel()
        second.cancel()
        assert len(sim._heap) == 5  # two dead of five: no rebuild yet
        # The drain drops dead tops before its ``until`` test.
        assert sim.run(until=2.5) == 2.5
        assert len(sim._heap) == 3
        assert sim._heap[0][2].active
        assert sim.events_processed == 0

    def test_compaction_preserves_time_and_fifo_order(self):
        sim = Simulator()
        fired = []
        sim.call_at(2.0, lambda: fired.append("late"))
        sim.call_at(1.0, lambda: fired.append("early-a"))
        sim.call_at(1.0, lambda: fired.append("early-b"))
        doomed = [sim.call_at(0.5, lambda: fired.append("doomed"))
                  for _ in range(5)]
        for event in doomed:
            event.cancel()
        assert len(sim._heap) == 3  # the fifth cancel rebuilt the heap
        _drain(sim)
        assert fired == ["early-a", "early-b", "late"]

    def test_event_key_precomputed_and_slots(self):
        sim = Simulator()
        event = sim.call_at(2.5, lambda: None)
        assert sim._heap[0][:2] == (2.5, event.seq)
        assert sim._heap[0][2] is event
        assert not hasattr(event, "__dict__")

    def test_queue_health_counters(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        later = sim.call_at(2.0, lambda: None)
        later.cancel()  # one dead of two: stays as heap garbage
        assert sim.pushes == 2
        assert sim.peak_heap_size == 2
        assert len(sim._heap) == 2
        assert sim.pending == 1
        sim.run()
        assert sim.events_processed == 1
        assert sim.pending == 0


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

    def test_run_until_past_only_cancelled_events_keeps_last_fired_time(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.call_at(10.0, lambda: None).cancel()
        assert sim.run(until=5.0) == 1.0
        assert sim.now == 1.0

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
