"""Golden-master regression pins.

These pin concrete simulation outputs at fixed seeds so accidental
calibration drift (a changed constant, an extra RNG draw, a reordered
event) shows up as a test failure rather than as silently shifted
benchmark numbers.  If a change is *intentional*, update the pins and the
EXPERIMENTS.md numbers together.
"""

import pytest

from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.cost.pricing import AWS_LAMBDA_PRICING
from repro.workloads.profiles import get_workload



def run(strategy, error_rate=0.15, seed=42, **kwargs):
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=16, strategy=strategy, error_rate=error_rate, **kwargs
        ),
        seed=seed,
    )
    platform.submit_job(
        JobRequest(workload=get_workload("graph-bfs"), num_functions=100)
    )
    platform.run()
    return platform.summary()


class TestGoldenNumbers:
    def test_ideal_graph_bfs(self):
        summary = run("ideal", error_rate=0.0)
        assert summary.makespan_s == pytest.approx(38.28, abs=0.5)
        assert summary.failures == 0
        assert summary.cost_total == pytest.approx(0.0262, abs=0.002)

    def test_retry_graph_bfs(self):
        summary = run("retry")
        assert summary.failures >= 15  # 15 victims + refailures
        assert summary.mean_recovery_s == pytest.approx(16.3, rel=0.25)
        assert summary.completed == 100

    def test_canary_graph_bfs(self):
        summary = run("canary")
        assert summary.mean_recovery_s == pytest.approx(2.7, rel=0.35)
        assert summary.checkpoints_taken == pytest.approx(1000, abs=60)
        assert summary.completed == 100

    def test_reduction_band_stable(self):
        retry = run("retry")
        canary = run("canary")
        reduction = 1 - canary.mean_recovery_s / retry.mean_recovery_s
        # The paper's headline band (reproduced at 79-90% here).
        assert 0.70 < reduction < 0.95

    def test_same_seed_bitwise_stable(self):
        assert run("canary") == run("canary")


class TestPricingVariants:
    def test_aws_pricing_scales_cost(self):
        ibm = run("ideal", error_rate=0.0)
        aws = run("ideal", error_rate=0.0, pricing=AWS_LAMBDA_PRICING)
        ratio = aws.cost_total / ibm.cost_total
        assert ratio == pytest.approx(0.0000167 / 0.000017, rel=1e-6)

    def test_makespan_independent_of_pricing(self):
        ibm = run("ideal", error_rate=0.0)
        aws = run("ideal", error_rate=0.0, pricing=AWS_LAMBDA_PRICING)
        assert ibm.makespan_s == aws.makespan_s
