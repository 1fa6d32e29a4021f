"""Unit tests for runtimes, containers, the invoker, and the controller."""

import pytest

from repro.cluster.cluster import Cluster
from repro.common.types import ContainerState, RuntimeKind
from repro.common.units import GiB
from repro.core.canary import CanaryPlatform
from repro.core.scenario import ScenarioConfig
from repro.faas.container import Container, ContainerPurpose
from repro.faas.controller import ContainerRequest, FaaSController
from repro.faas.invoker import Invoker
from repro.faas.limits import PlatformLimits
from repro.faas.runtimes import DEFAULT_RUNTIME_IMAGES, RuntimeRegistry
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


@pytest.fixture
def cluster():
    return Cluster(4)


@pytest.fixture
def controller(sim, cluster):
    return FaaSController(sim, cluster)


def request_container(controller, *, kind=RuntimeKind.PYTHON, **kwargs):
    ready = []
    request = ContainerRequest(
        kind=kind,
        purpose=kwargs.pop("purpose", ContainerPurpose.FUNCTION),
        on_ready=ready.append,
        **kwargs,
    )
    controller.submit(request)
    return request, ready


class TestRuntimeRegistry:
    def test_all_kinds_registered(self):
        registry = RuntimeRegistry()
        assert set(registry.kinds()) == set(RuntimeKind)

    def test_java_has_slowest_cold_start(self):
        registry = RuntimeRegistry()
        java = registry.get(RuntimeKind.JAVA).cold_start_s
        python = registry.get(RuntimeKind.PYTHON).cold_start_s
        nodejs = registry.get(RuntimeKind.NODEJS).cold_start_s
        assert java > python > nodejs

    def test_unknown_kind_raises(self):
        registry = RuntimeRegistry(images=DEFAULT_RUNTIME_IMAGES[:1])
        with pytest.raises(KeyError):
            registry.get(RuntimeKind.JAVA)


class TestLimits:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_concurrent_invocations": 0},
            {"max_function_memory_bytes": 0},
            {"max_function_timeout_s": 0},
            {"max_job_functions": 0},
        ],
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlatformLimits(**kwargs)


class TestContainer:
    def test_billing_spans_launch_to_termination(self, sim, cluster):
        node = cluster.nodes[0]
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        container = Container("c0", runtime, node)
        assert container.billed_seconds(100.0) == 0.0  # never launched
        container.mark_launching(10.0)
        assert container.billed_seconds(25.0) == 15.0
        node.attach(container)
        container.terminate(30.0, ContainerState.COMPLETED)
        assert container.billed_seconds(100.0) == 20.0

    def test_billed_gb_seconds(self, cluster):
        node = cluster.nodes[0]
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        container = Container("c0", runtime, node, memory_bytes=2 * GiB)
        container.mark_launching(0.0)
        node.attach(container)
        container.terminate(10.0, ContainerState.COMPLETED)
        assert container.billed_gb_seconds(10.0) == pytest.approx(20.0)

    def test_terminate_requires_terminal_state(self, cluster):
        node = cluster.nodes[0]
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        container = Container("c0", runtime, node)
        with pytest.raises(ValueError):
            container.terminate(1.0, ContainerState.RUNNING)

    def test_adopt_requires_warm_idle(self, cluster):
        node = cluster.nodes[0]
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        container = Container(
            "c0", runtime, node, purpose=ContainerPurpose.REPLICA
        )
        with pytest.raises(RuntimeError):
            container.adopt("fn-1")  # still PENDING
        container.mark_launching(0.0)
        container.mark_ready(1.0, warm=True)
        container.adopt("fn-1")
        assert container.state == ContainerState.RUNNING
        assert container.current_function == "fn-1"
        assert container.adopted_count == 1


class TestInvoker:
    def test_cold_start_duration_matches_profile(self, sim, cluster):
        node = cluster.nodes[0]
        invoker = Invoker(sim, node)
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        container = Container("c0", runtime, node)
        node.attach(container)
        ready_at = []
        invoker.cold_start(container, lambda c: ready_at.append(sim.now))
        sim.run()
        expected = node.scale_duration(runtime.cold_start_s)
        assert ready_at == [pytest.approx(expected)]
        assert container.state == ContainerState.RUNNING

    def test_warm_flag_parks_container(self, sim, cluster):
        node = cluster.nodes[0]
        invoker = Invoker(sim, node)
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        container = Container("c0", runtime, node)
        node.attach(container)
        invoker.cold_start(container, lambda c: None, warm=True)
        sim.run()
        assert container.state == ContainerState.WARM

    def test_concurrent_cold_starts_contend(self, sim, cluster):
        node = cluster.nodes[0]
        invoker = Invoker(sim, node, contention_gamma=0.5)
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        ready = []
        for i in range(4):
            container = Container(f"c{i}", runtime, node)
            node.attach(container)
            invoker.cold_start(container, lambda c: ready.append(sim.now))
        sim.run()
        solo = node.scale_duration(runtime.cold_start_s)
        assert max(ready) > solo  # contention stretched at least one start

    def test_abort_cold_start(self, sim, cluster):
        node = cluster.nodes[0]
        invoker = Invoker(sim, node)
        runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
        container = Container("c0", runtime, node)
        node.attach(container)
        ready = []
        invoker.cold_start(container, lambda c: ready.append(c))
        invoker.abort_cold_start(container)
        sim.run()
        assert ready == []
        assert node.cold_starts_in_flight == 0

    def test_negative_gamma_rejected(self, sim, cluster):
        with pytest.raises(ValueError):
            Invoker(sim, cluster.nodes[0], contention_gamma=-0.1)


class TestController:
    def test_container_placed_and_ready(self, sim, controller):
        request, ready = request_container(controller)
        assert request.container is not None
        sim.run()
        assert len(ready) == 1
        assert ready[0].state == ContainerState.RUNNING

    def test_on_placed_fires_before_ready(self, sim, controller):
        order = []
        request = ContainerRequest(
            kind=RuntimeKind.PYTHON,
            purpose=ContainerPurpose.FUNCTION,
            on_ready=lambda c: order.append("ready"),
            on_placed=lambda c: order.append("placed"),
        )
        controller.submit(request)
        sim.run()
        assert order == ["placed", "ready"]

    def test_preferred_node_honoured(self, sim, controller):
        request, _ = request_container(controller, preferred_node="node-02")
        assert request.container.node.node_id == "node-02"

    def test_avoid_nodes_honoured_when_possible(self, sim, controller):
        avoid = frozenset({"node-00", "node-01"})
        request, _ = request_container(controller, avoid_nodes=avoid)
        assert request.container.node.node_id not in avoid

    def test_queueing_when_cluster_full(self, sim, cluster, controller):
        total_slots = cluster.total_slots()
        requests = []
        for _ in range(total_slots + 5):
            request, _ = request_container(controller)
            requests.append(request)
        assert controller.queue_depth() == 5
        placed = [r for r in requests if r.container is not None]
        assert len(placed) == total_slots
        # Terminating containers frees slots and drains the queue.
        for request in placed[:5]:
            controller.terminate(request.container, ContainerState.COMPLETED)
        assert controller.queue_depth() == 0

    def test_cancelled_queued_request_is_dropped(self, sim, cluster, controller):
        for _ in range(cluster.total_slots()):
            request_container(controller)
        queued, ready = request_container(controller)
        queued.cancel()
        first = controller.active_containers()[0]
        controller.terminate(first, ContainerState.COMPLETED)
        sim.run()
        assert ready == []

    def test_kill_container_notifies_listeners(self, sim, controller):
        losses = []
        controller.on_container_loss(lambda c, r: losses.append((c, r)))
        request, _ = request_container(controller)
        sim.run()
        controller.kill_container(request.container, "test-kill")
        assert losses == [(request.container, "test-kill")]
        assert request.container.state == ContainerState.FAILED

    def test_kill_terminal_container_is_noop(self, sim, controller):
        losses = []
        controller.on_container_loss(lambda c, r: losses.append(r))
        request, _ = request_container(controller)
        sim.run()
        controller.terminate(request.container, ContainerState.COMPLETED)
        controller.kill_container(request.container, "late")
        assert losses == []

    def test_node_failure_kills_residents_and_notifies(
        self, sim, cluster, controller
    ):
        losses = []
        controller.on_container_loss(lambda c, r: losses.append((c.container_id, r)))
        request, _ = request_container(controller, preferred_node="node-01")
        sim.run()
        cluster.fail_node("node-01", sim.now)
        assert losses and losses[0][1] == "node-failure:node-01"
        assert request.container.state == ContainerState.FAILED

    def test_node_failure_during_cold_start_drops_ready(
        self, sim, cluster, controller
    ):
        request, ready = request_container(controller, preferred_node="node-01")
        cluster.fail_node("node-01", 0.0)  # before cold start completes
        sim.run()
        assert ready == []

    def test_active_function_count(self, sim, controller):
        request_container(controller)
        request_container(controller, purpose=ContainerPurpose.REPLICA, warm=True)
        assert controller.active_function_count() == 1

    def test_warm_replicas_listing(self, sim, controller):
        request, _ = request_container(
            controller, purpose=ContainerPurpose.REPLICA, warm=True
        )
        assert controller.warm_replicas() == []  # not ready yet
        sim.run()
        assert controller.warm_replicas() == [request.container]
        assert controller.warm_replicas(RuntimeKind.JAVA) == []


def test_function_hosting_nodes_matches_scan_after_every_event():
    """The per-kind node index equals a scan of the live FUNCTION
    containers after every event, through injected errors, a node
    failure and warm container reuse."""
    platform = CanaryPlatform(
        ScenarioConfig(
            workload="graph-bfs",
            num_functions=30,
            num_nodes=4,
            error_rate=0.3,
            node_failure_count=1,
            reuse_containers=True,
        ),
        seed=0,
    )
    controller = platform.controller
    kinds = set(RuntimeKind)
    seen_nonempty = 0

    def check():
        nonlocal seen_nonempty
        scan: dict[RuntimeKind, set[str]] = {kind: set() for kind in kinds}
        for container in controller.active_containers(
            ContainerPurpose.FUNCTION
        ):
            scan[container.kind].add(container.node.node_id)
        for kind in kinds:
            nodes = controller.function_hosting_nodes(kind)
            ids = [node.node_id for node in nodes]
            assert len(ids) == len(set(ids))
            assert set(ids) == scan[kind], (platform.sim.now, kind)
            seen_nonempty += bool(ids)

    platform.submit_batch()
    platform.run(until=0.0)  # schedules the node failure
    check()
    while platform.sim.step():
        check()
    assert platform.metrics.completed_count() == 30
    assert platform.injector.scheduled_node_failures
    assert platform.metrics.failures
    assert controller.warm_starts > 0
    assert seen_nonempty > 0
