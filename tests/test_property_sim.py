"""Property-based tests for the event engine and estimator."""

from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.replication import estimator as estimator_module
from repro.replication.estimator import FailureRateEstimator
from repro.sim.engine import Simulator


class TestEngineProperties:
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.call_at(t, lambda t=t: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=50,
        ),
        cancel_idx=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_cancelled_events_never_fire(self, times, cancel_idx):
        sim = Simulator()
        fired = []
        handles = [
            sim.call_at(t, lambda i=i: fired.append(i))
            for i, t in enumerate(times)
        ]
        to_cancel = cancel_idx.draw(
            st.sets(
                st.integers(min_value=0, max_value=len(times) - 1),
                max_size=len(times),
            )
        )
        for i in to_cancel:
            handles[i].cancel()
        sim.run()
        assert set(fired) == set(range(len(times))) - to_cancel

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_queue_length_tracks_pushes_and_pops(self, times):
        sim = Simulator()
        for t in times:
            sim.call_at(t, lambda: None)
        assert sim.pending == sim.pushes == len(times)
        fired = 0
        while sim.step():
            fired += 1
        assert fired == sim.events_processed == len(times)
        assert sim.pending == 0


class TestEstimatorProperties:
    @given(
        failures=st.integers(min_value=0, max_value=10_000),
        successes=st.integers(min_value=0, max_value=10_000),
        prior=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_rate_always_within_unit_interval(self, failures, successes, prior):
        with mock.patch.object(estimator_module, "PRIOR_RATE", prior):
            est = FailureRateEstimator()
            est.record_failure(failures)
            est.record_success(successes)
            assert 0.0 <= est.rate <= 1.0

    @given(
        observations=st.lists(st.booleans(), min_size=1, max_size=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_between_prior_and_empirical(self, observations):
        est = FailureRateEstimator()
        for failed in observations:
            if failed:
                est.record_failure()
            else:
                est.record_success()
        empirical = sum(observations) / len(observations)
        low, high = sorted((0.05, empirical))
        assert low - 1e-9 <= est.rate <= high + 1e-9
