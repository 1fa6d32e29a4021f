"""Tests for the controller start-rate limiter (OpenWhisk bottleneck model)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.common.types import RuntimeKind
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.faas.container import ContainerPurpose
from repro.faas.controller import ContainerRequest, FaaSController
from repro.sim.engine import Simulator

from tests.conftest import TINY


def submit_n(controller, n):
    requests = []
    for _ in range(n):
        request = ContainerRequest(
            kind=RuntimeKind.PYTHON,
            purpose=ContainerPurpose.FUNCTION,
            on_ready=lambda c: None,
        )
        controller.submit(request)
        requests.append(request)
    return requests


class TestControllerRateLimit:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FaaSController(
                Simulator(), Cluster(2), start_rate_limit=0
            )

    def test_unlimited_places_burst_immediately(self):
        sim = Simulator()
        controller = FaaSController(sim, Cluster(4))
        requests = submit_n(controller, 20)
        assert all(r.container is not None for r in requests)

    def test_limited_spaces_out_starts(self):
        sim = Simulator()
        controller = FaaSController(sim, Cluster(4), start_rate_limit=2.0)
        requests = submit_n(controller, 10)
        # Only the first start fits at t=0; the rest queue.
        placed_now = [r for r in requests if r.container is not None]
        assert len(placed_now) == 1
        sim.run(until=2.0)
        placed = [r for r in requests if r.container is not None]
        # 2/s for ~2s -> about 5 placements (1 at t=0, then every 0.5s).
        assert 3 <= len(placed) <= 6
        sim.run()
        assert all(r.container is not None for r in requests)

    def test_launch_times_respect_rate(self):
        sim = Simulator()
        controller = FaaSController(sim, Cluster(4), start_rate_limit=1.0)
        requests = submit_n(controller, 5)
        sim.run()
        starts = sorted(
            r.container.launch_started_at for r in requests
        )
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(gap >= 1.0 - 1e-9 for gap in gaps)


class TestPlatformRateLimit:
    def test_rate_limited_platform_completes(self):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4,
                strategy="ideal",
                start_rate_limit=10.0,
            ),
            seed=0,
        )
        job = platform.submit_job(JobRequest(workload=TINY, num_functions=30))
        platform.run()
        assert job.done

    def test_rate_limit_flattens_cluster_scaling(self):
        """With a controller bottleneck, adding nodes barely helps — the
        regime the paper's Fig. 12 testbed appears to be in."""

        def makespan(nodes, rate):
            platform = CanaryPlatform(
                ScenarioConfig(
                    num_nodes=nodes,
                    strategy="ideal",
                    start_rate_limit=rate,
                ),
                seed=0,
            )
            platform.submit_job(
                JobRequest(workload=TINY, num_functions=200)
            )
            platform.run()
            return platform.makespan()

        unlimited_gain = makespan(1, None) / makespan(16, None)
        limited_gain = makespan(1, 2.0) / makespan(16, 2.0)
        assert limited_gain < unlimited_gain
        assert limited_gain < 1.5  # controller-bound: modest scaling
