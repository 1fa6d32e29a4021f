"""Tests for availability accounting."""


from repro.metrics.availability import availability, total_function_time

from tests.conftest import build_platform, run_tiny_job


class TestAvailability:
    def test_failure_free_run_is_fully_available(self):
        platform, _ = run_tiny_job(strategy="ideal", num_functions=10)
        assert availability(platform) == 1.0

    def test_failures_reduce_availability(self):
        platform, _ = run_tiny_job(
            strategy="retry", error_rate=0.5, num_functions=10,
            refailure_rate=0.0,
        )
        assert availability(platform) < 1.0

    def test_canary_more_available_than_retry(self):
        retry, _ = run_tiny_job(
            strategy="retry", error_rate=0.4, num_functions=20, seed=3,
            refailure_rate=0.0,
        )
        canary, _ = run_tiny_job(
            strategy="canary", error_rate=0.4, num_functions=20, seed=3,
            refailure_rate=0.0,
        )
        assert availability(canary) > availability(retry)

    def test_empty_metrics_defaults_to_one(self):
        assert availability(build_platform()) == 1.0

    def test_total_function_time_positive(self):
        platform, _ = run_tiny_job(strategy="ideal", num_functions=5)
        assert total_function_time(platform) > 0
