"""Unit tests for the Request Validator Module and ID generation."""

import pytest

from repro.common.errors import ResourceLimitError
from repro.common.units import gb, mb
from repro.core.ids import IdGenerator
from repro.core.jobs import JobRequest
from repro.core.validator import RequestValidator, ValidationResult
from repro.faas.limits import PlatformLimits

from tests.conftest import TINY


def make_request(**kwargs):
    kwargs.setdefault("workload", TINY)
    kwargs.setdefault("num_functions", 10)
    return JobRequest(**kwargs)


class TestRequestValidator:
    def setup_method(self):
        self.validator = RequestValidator(
            PlatformLimits(
                max_concurrent_invocations=100,
                max_function_memory_bytes=gb(2),
                max_function_timeout_s=600.0,
                max_job_functions=500,
            )
        )

    def test_admits_within_limits(self):
        report = self.validator.validate(make_request(), active_invocations=0)
        assert report.result is ValidationResult.ADMIT

    def test_rejects_oversized_memory(self):
        report = self.validator.validate(
            make_request(memory_bytes=gb(4)), active_invocations=0
        )
        assert report.result is ValidationResult.REJECT
        assert "memory" in report.reason

    def test_rejects_oversized_timeout(self):
        report = self.validator.validate(
            make_request(timeout_s=1200.0), active_invocations=0
        )
        assert report.result is ValidationResult.REJECT
        assert "timeout" in report.reason

    def test_rejects_too_many_functions(self):
        report = self.validator.validate(
            make_request(num_functions=501), active_invocations=0
        )
        assert report.result is ValidationResult.REJECT

    def test_queues_on_concurrency_pressure(self):
        report = self.validator.validate(
            make_request(num_functions=50), active_invocations=60
        )
        assert report.result is ValidationResult.QUEUE
        assert "concurrency" in report.reason

    def test_rejects_job_larger_than_concurrency_cap(self):
        report = self.validator.validate(
            make_request(num_functions=101), active_invocations=0
        )
        assert report.result is ValidationResult.REJECT
        assert "101" in report.reason and "100" in report.reason

    def test_cap_sized_job_queues_behind_active_work(self):
        report = self.validator.validate(
            make_request(num_functions=100), active_invocations=1
        )
        assert report.result is ValidationResult.QUEUE

    def test_exact_fit_admits(self):
        report = self.validator.validate(
            make_request(num_functions=40), active_invocations=60
        )
        assert report.result is ValidationResult.ADMIT

    def test_require_valid_raises_on_hard_violation(self):
        with pytest.raises(ResourceLimitError):
            self.validator.require_valid(make_request(memory_bytes=gb(4)))

    def test_require_valid_passes_queueable_requests(self):
        # require_valid only guards hard limits, not concurrency.
        self.validator.require_valid(make_request())


class TestJobRequest:
    def test_rejects_nonpositive_functions(self):
        with pytest.raises(ValueError):
            make_request(num_functions=0)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            make_request(checkpoint_interval=0)

    def test_memory_defaults_to_workload(self):
        assert make_request().function_memory_bytes == TINY.memory_bytes
        assert (
            make_request(memory_bytes=mb(64)).function_memory_bytes == mb(64)
        )


class TestIdGenerator:
    def test_job_ids_monotonic_and_unique(self):
        ids = IdGenerator()
        assert ids.job_id() == "job-0000"
        assert ids.job_id() == "job-0001"

    def test_function_ids_embed_job(self):
        ids = IdGenerator()
        job = ids.job_id()
        assert ids.function_id(job, 7) == "fn-0000-0007"

    def test_checkpoint_ids_per_function_counters(self):
        ids = IdGenerator()
        a1 = ids.checkpoint_id("fn-0000-0001")
        a2 = ids.checkpoint_id("fn-0000-0001")
        b1 = ids.checkpoint_id("fn-0000-0002")
        assert a1.endswith("0000") and a2.endswith("0001")
        assert b1.endswith("0000")
        assert len({a1, a2, b1}) == 3

    def test_attempt_and_replica_ids(self):
        ids = IdGenerator()
        assert ids.replica_id() == "rep-00000"
        assert ids.attempt_id("fn-0000-0001") == "att-0000-0001-00"
