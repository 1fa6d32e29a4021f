"""Controller queue bookkeeping: the O(1) ``queued`` flag and identity.

``ContainerRequest.queued`` replaces linear ``request in controller._queue``
scans on the place-backoff path, so it must mirror deque membership
exactly: set where ``submit`` appends, cleared where ``_drain_queue`` pops.
These tests drive the controller through seeded churn and compare the flag
against a scan after every step and every fired event.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.common.types import ContainerState, RuntimeKind
from repro.common.units import gb
from repro.detection import BackoffPolicy
from repro.detection.backoff import MAX_ATTEMPTS
from repro.faas.container import ContainerPurpose
from repro.faas.controller import ContainerRequest, FaaSController
from repro.sim.engine import Simulator

#: Three requests fill a node's 192 GB, so a 3-node cluster holds nine.
MEMORY = gb(64)


def make_request(**kwargs) -> ContainerRequest:
    return ContainerRequest(
        kind=RuntimeKind.PYTHON,
        purpose=ContainerPurpose.FUNCTION,
        on_ready=lambda container: None,
        memory_bytes=MEMORY,
        **kwargs,
    )


def assert_flags_mirror_queue(controller, requests):
    for request in requests:
        in_queue = any(r is request for r in controller._queue)
        assert request.queued == in_queue, request


def advance(sim, dt, check):
    """Run *dt* seconds one event at a time, checking after each."""
    until = sim.now + dt
    while True:
        before = sim.events_processed
        sim.run(until=until, max_events=1)
        check()
        if sim.events_processed == before:
            return


@pytest.mark.parametrize("seed", range(6))
def test_queued_flag_mirrors_queue_under_churn(seed):
    sim = Simulator(seed=seed)
    cluster = Cluster(3)
    controller = FaaSController(sim, cluster, backoff=BackoffPolicy())
    rng = np.random.default_rng(seed)
    requests: list[ContainerRequest] = []

    def check():
        assert_flags_mirror_queue(controller, requests)

    max_depth = 0
    cancelled_while_queued = 0
    failures = 0
    for _ in range(300):
        op = rng.choice(["submit", "cancel", "terminate", "fail", "advance"],
                        p=[0.4, 0.1, 0.2, 0.01, 0.29])
        if op == "submit":
            requests.append(controller.submit(make_request()))
        elif op == "cancel":
            live = [r for r in requests if not r.cancelled]
            if live:
                victim = live[int(rng.integers(len(live)))]
                cancelled_while_queued += victim.queued
                victim.cancel()
        elif op == "terminate":
            active = [
                c for c in controller.all_containers() if not c.terminal
            ]
            if active:
                container = active[int(rng.integers(len(active)))]
                controller.terminate(container, ContainerState.COMPLETED)
        elif op == "fail" and failures < 2:
            alive = cluster.alive_nodes()
            node = alive[int(rng.integers(len(alive)))]
            cluster.fail_node(node.node_id, sim.now)
            failures += 1
        else:
            advance(sim, float(rng.uniform(0.0, 3.0)), check)
        check()
        max_depth = max(max_depth, controller.queue_depth())
    advance(sim, 60.0, check)
    # The churn really exercised the queue and the backoff path.
    assert max_depth >= 5
    assert controller.backoff_retries > 0
    assert cancelled_while_queued > 0


def _saturated_controller():
    """One node full of placed requests, one more request queued."""
    sim = Simulator(seed=0)
    controller = FaaSController(sim, Cluster(1), backoff=BackoffPolicy())
    placed = [controller.submit(make_request()) for _ in range(3)]
    assert all(r.container is not None for r in placed)
    waiting = controller.submit(make_request())
    assert waiting.queued and controller.queue_depth() == 1
    return sim, controller, placed, waiting


@pytest.mark.parametrize("outcome", ["placed", "cancelled", "dropped"])
def test_stale_backoff_timer_neither_drains_nor_counts(outcome):
    sim, controller, placed, waiting = _saturated_controller()
    if outcome == "placed":
        # Freeing a slot drains the queue before the timer fires.
        controller.terminate(placed[0].container, ContainerState.COMPLETED)
        assert waiting.container is not None
    elif outcome == "cancelled":
        waiting.cancel()  # still in the deque until the next drain
    else:
        waiting.cancel()
        controller.kick()  # the drain drops the cancelled request
    assert waiting.queued == (outcome == "cancelled")
    drains = []
    real_drain = controller._drain_queue
    controller._drain_queue = lambda: (drains.append(sim.now), real_drain())
    sim.run(until=30.0)
    assert drains == []
    assert controller.backoff_retries == 0


def test_live_backoff_timer_drains_and_counts():
    sim, controller, _, waiting = _saturated_controller()
    sim.run(until=120.0)
    # Six retries against the full node, then the schedule gives up.
    assert controller.backoff_retries == MAX_ATTEMPTS
    assert waiting.queued and waiting.container is None


def test_requests_compare_by_identity():
    def on_ready(container):
        pass

    first = ContainerRequest(
        kind=RuntimeKind.PYTHON,
        purpose=ContainerPurpose.FUNCTION,
        on_ready=on_ready,
    )
    second = ContainerRequest(
        kind=RuntimeKind.PYTHON,
        purpose=ContainerPurpose.FUNCTION,
        on_ready=on_ready,
    )
    assert first != second
    assert first == first
    assert second not in [first]
    assert len({first, second}) == 2
