"""Unit tests for metrics collection and the pricing model."""

import pytest

from repro.cluster.cluster import Cluster
from repro.common.types import ContainerState, RuntimeKind
from repro.common.units import GiB
from repro.cost.pricing import (
    AWS_LAMBDA_PRICING,
    IBM_CLOUD_FUNCTIONS_PRICING,
    PricingModel,
    compute_cost,
)
from repro.faas.container import Container, ContainerPurpose
from repro.faas.runtimes import RuntimeRegistry
from repro.metrics.collector import FailureEvent, MetricsCollector


class TestPricing:
    def test_ibm_price_matches_paper(self):
        assert IBM_CLOUD_FUNCTIONS_PRICING.price_per_gb_s == 0.000017

    def test_aws_price_comparable(self):
        assert AWS_LAMBDA_PRICING.price_per_gb_s == pytest.approx(
            0.0000167
        )

    def test_cost_linear(self):
        model = PricingModel("x", 0.00001)
        assert model.cost(200) == pytest.approx(2 * model.cost(100))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IBM_CLOUD_FUNCTIONS_PRICING.cost(-1)


class TestComputeCost:
    def make_container(self, purpose, *, lifetime=10.0, memory=GiB):
        cluster = Cluster(1)
        node = cluster.nodes[0]
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        container = Container(
            "c0", runtime, node, purpose=purpose, memory_bytes=memory
        )
        container.mark_launching(0.0)
        node.attach(container)
        container.terminate(lifetime, ContainerState.COMPLETED)
        return container

    def test_breakdown_by_purpose(self):
        containers = [
            self.make_container(ContainerPurpose.FUNCTION),
            self.make_container(ContainerPurpose.REPLICA),
            self.make_container(ContainerPurpose.STANDBY),
        ]
        breakdown = compute_cost(containers, now=100.0)
        expected = IBM_CLOUD_FUNCTIONS_PRICING.cost(10.0)
        assert breakdown.function_cost == pytest.approx(expected)
        assert breakdown.replica_cost == pytest.approx(expected)
        assert breakdown.standby_cost == pytest.approx(expected)
        assert breakdown.total == pytest.approx(3 * expected)
        assert breakdown.containers == 3

    def test_live_container_billed_to_now(self):
        cluster = Cluster(1)
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        container = Container(
            "c0", runtime, cluster.nodes[0], memory_bytes=GiB
        )
        container.mark_launching(0.0)
        breakdown = compute_cost([container], now=5.0)
        assert breakdown.function_gb_s == pytest.approx(5.0)


class TestMetricsCollector:
    def test_failure_event_metrics(self):
        collector = MetricsCollector()
        event = FailureEvent(
            function_id="f1",
            job_id="j1",
            kill_time=5.0,
            progress_states=2.5,
            reason="injected",
        )
        collector.record_failure(event)
        assert collector.total_recovery_time() == 0.0  # not recovered yet
        assert collector.unrecovered_failures() == [event]
        event.resume_time = 7.0
        event.recovered_at = 9.0
        assert event.recovery_time == 4.0
        assert collector.total_recovery_time() == 4.0
        assert collector.mean_recovery_time() == 4.0
        assert collector.unrecovered_failures() == []
