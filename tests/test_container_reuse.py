"""Tests for warm-start container reuse."""

from repro.cluster.cluster import Cluster
from repro.common.types import ContainerState, RuntimeKind
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.faas import controller as controller_module
from repro.faas.container import ContainerPurpose
from repro.faas.controller import ContainerRequest, FaaSController
from repro.faas.limits import PlatformLimits
from repro.sim.engine import Simulator

from tests.conftest import TINY


def make_controller(**kwargs):
    sim = Simulator()
    controller = FaaSController(sim, Cluster(2), **kwargs)
    return sim, controller


def request_one(controller, on_ready=None, **kwargs):
    request = ContainerRequest(
        kind=RuntimeKind.PYTHON,
        purpose=ContainerPurpose.FUNCTION,
        on_ready=on_ready or (lambda c: None),
        **kwargs,
    )
    controller.submit(request)
    return request


class TestControllerReuse:
    def test_completed_container_parked_and_reused(self):
        sim, controller = make_controller(reuse_containers=True)
        first = request_one(controller)
        sim.run()
        controller.terminate(first.container, ContainerState.COMPLETED)
        assert first.container.state is ContainerState.WARM

        second = request_one(controller)
        # Served synchronously from the pool: same container, no cold start.
        assert second.container is first.container
        assert second.container.state is ContainerState.RUNNING
        assert controller.warm_starts == 1

    def test_reuse_disabled_by_default(self):
        sim, controller = make_controller()
        first = request_one(controller)
        sim.run()
        controller.terminate(first.container, ContainerState.COMPLETED)
        assert first.container.terminal
        second = request_one(controller)
        assert second.container is not first.container

    def test_failed_containers_never_parked(self):
        sim, controller = make_controller(reuse_containers=True)
        first = request_one(controller)
        sim.run()
        controller.kill_container(first.container, "boom")
        assert first.container.terminal
        assert controller.warm_starts == 0

    def test_idle_timeout_reclaims(self, monkeypatch):
        monkeypatch.setattr(controller_module, "REUSE_IDLE_TIMEOUT_S", 10.0)
        sim, controller = make_controller(reuse_containers=True)
        first = request_one(controller)
        sim.run()
        controller.terminate(first.container, ContainerState.COMPLETED)
        sim.run()  # the reclaim timer fires
        assert first.container.state is ContainerState.KILLED
        assert sim.now >= 10.0

    def test_avoid_nodes_respected_on_reuse(self):
        sim, controller = make_controller(reuse_containers=True)
        first = request_one(controller)
        sim.run()
        node_id = first.container.node.node_id
        controller.terminate(first.container, ContainerState.COMPLETED)
        second = request_one(
            controller, avoid_nodes=frozenset({node_id})
        )
        assert second.container is not first.container

    def test_parked_containers_not_counted_as_invocations(self):
        sim, controller = make_controller(reuse_containers=True)
        first = request_one(controller)
        sim.run()
        controller.terminate(first.container, ContainerState.COMPLETED)
        assert controller.active_function_count() == 0


class TestPlatformReuse:
    def run_two_waves(self, reuse: bool):
        """Two sequential jobs: the second can warm-start on the first's
        containers when reuse is on."""
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=2,
                strategy="ideal",
                reuse_containers=reuse,
                limits=PlatformLimits(max_concurrent_invocations=20),
            ),
            seed=0,
        )
        platform.submit_job(JobRequest(workload=TINY, num_functions=20))
        platform.submit_job(JobRequest(workload=TINY, num_functions=20))
        platform.run()
        cold_starts = sum(
            inv.cold_starts_total for inv in platform.invokers_list()
        )
        return platform, cold_starts

    def test_reuse_cuts_cold_starts_and_makespan(self):
        with_reuse, cold_with = self.run_two_waves(True)
        without, cold_without = self.run_two_waves(False)
        assert all(j.done for j in with_reuse.jobs.values())
        assert cold_with < cold_without
        assert with_reuse.makespan() < without.makespan()
        assert with_reuse.controller.warm_starts > 0
