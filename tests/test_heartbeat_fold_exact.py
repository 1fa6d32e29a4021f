"""Exactness guard for folded heartbeats.

A healthy node keeps no engine events: its beats are materialised on
demand from the same float chain when something observes the node
(DESIGN.md, "Heartbeat fold addendum").  The reference is the stepwise
path, one ``hb:`` event and one ``suspect:`` timer per beat, which runs
when the fold predicate is patched to refuse.  Every scenario below runs
both ways and must agree exactly: the summary, the detector's statistics,
per-node suspicion counts and detection latencies, the failure events,
the final clock and, for the traced run, the spans.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict
from typing import Callable, Optional

import pytest

from repro.adaptive import AdaptiveConfig
from repro.autoscale import AutoscaleConfig
from repro.cluster.cluster import Cluster
from repro.core.canary import CanaryPlatform
from repro.detection import BackoffPolicy, DetectionConfig, DetectionModule
from repro.experiments.config import ScenarioConfig
from repro.faults.chaos import ChaosConfig
from repro.metrics.engine import collect_engine_stats
from repro.network.config import get_network_preset
from repro.sim.engine import Simulator
from repro.trace.tracer import Tracer
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig

BASE = ScenarioConfig(
    workload="graph-bfs",
    strategy="canary",
    error_rate=0.15,
    num_functions=60,
    num_nodes=8,
    detection=DetectionConfig(),
    backoff=BackoffPolicy(),
)


def _traffic(rate: float, duration_s: float) -> TrafficConfig:
    return TrafficConfig(
        tenants=(
            Tenant(
                name="t",
                arrivals=PoissonArrivals(rate_per_s=rate),
                workloads=("micro-python",),
            ),
        ),
        duration_s=duration_s,
    )


def _stop_and_restart(platform: CanaryPlatform, run: Callable) -> None:
    """Traffic drains and the monitor stops; a batch submitted afterwards
    restarts it on the next ``run``."""
    run()
    platform.submit_batch()
    run()


#: name -> (scenario, optional driver replacing ``submit_batch`` + run)
SCENARIOS: dict[str, tuple[ScenarioConfig, Optional[Callable]]] = {
    "gray-failures": (
        BASE.with_(
            jobs=2,
            node_failure_count=2,
            chaos=ChaosConfig(
                stragglers=2, straggler_window=(3.0, 15.0),
                straggler_duration_s=6.0, straggler_slowdown=0.25,
                zombies=1, zombie_window=(5.0, 8.0), zombie_kill_after_s=12.0,
                partitions=1, partition_window=(6.0, 10.0),
                partition_duration_s=3.0,
            ),
        ),
        None,
    ),
    "waiters-under-errors": (BASE.with_(error_rate=0.35), None),
    "edge-wan-adaptive": (
        BASE.with_(
            workload="micro-python",
            error_rate=0.1,
            num_nodes=8,
            network=get_network_preset("edge-wan"),
            chaos=ChaosConfig(
                wan_flaps=2, wan_flap_window=(5.0, 30.0),
                wan_flap_duration_s=5.0, wan_flap_factor=0.2,
            ),
            traffic=_traffic(2.0, 40.0),
            adaptive=AdaptiveConfig(),
        ),
        None,
    ),
    "idle-stop-restart": (
        BASE.with_(
            workload="micro-python",
            num_functions=10,
            traffic=_traffic(1.0, 20.0),
        ),
        _stop_and_restart,
    ),
    "autoscale-in-and-out": (
        BASE.with_(
            workload="micro-python",
            error_rate=0.3,
            num_nodes=2,
            traffic=_traffic(4.0, 60.0),
            autoscale=AutoscaleConfig(min_nodes=2, max_nodes=10),
        ),
        None,
    ),
}


def _refuse_fold(patch) -> None:
    """Run the stepwise reference path: no node's beats ever fold."""
    patch.setattr(DetectionModule, "_can_fold", lambda self, node: False)


def _spans(tracer: Tracer) -> Counter:
    spans = tracer.spans()
    names = {span.span_id: (span.kind, span.name) for span in spans}
    return Counter(
        (
            span.kind, span.name, span.start, span.end,
            names.get(span.parent_id),
            tuple(sorted(span.attrs.items())),
        )
        for span in spans
    )


def _outcome(
    name: str,
    *,
    fold: bool,
    monkeypatch,
    step_s: Optional[float] = None,
    traced: bool = False,
) -> dict:
    scenario, driver = SCENARIOS[name]
    tracer = Tracer() if traced else None
    with monkeypatch.context() as patch:
        if not fold:
            _refuse_fold(patch)
        platform = CanaryPlatform(scenario, seed=3, tracer=tracer)

        def run() -> None:
            if step_s is None:
                platform.run()
                return
            until = platform.sim.now
            while True:
                until += step_s
                platform.run(until=until)
                if not platform.sim.pending:
                    return

        if driver is not None:
            driver(platform, run)
        else:
            if scenario.traffic is None:
                platform.submit_batch()
            run()
    detection = platform.detection
    assert not detection._folded
    return {
        "summary": asdict(platform.summary()),
        "detection": asdict(detection.stats()),
        "node_suspicions": detection.node_suspicions,
        "latencies": detection.detection_latencies,
        "failures": [asdict(event) for event in platform.metrics.failures],
        "now": platform.sim.now,
        "spans": _spans(tracer) if traced else None,
        "pushes": collect_engine_stats(platform.sim).pushes,
    }


def _assert_same(folded: dict, stepwise: dict) -> None:
    for key in (
        "summary", "detection", "node_suspicions", "latencies", "failures",
        "now", "spans",
    ):
        assert folded[key] == stepwise[key], key


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_fold_matches_stepwise_exactly(name, monkeypatch):
    folded = _outcome(name, fold=True, monkeypatch=monkeypatch)
    stepwise = _outcome(name, fold=False, monkeypatch=monkeypatch)
    assert folded["summary"]["completed"] > 0
    assert folded["detection"]["heartbeats_sent"] > 0
    _assert_same(folded, stepwise)
    assert folded["pushes"] < stepwise["pushes"]


def test_gray_failures_exercise_the_detector(monkeypatch):
    outcome = _outcome("gray-failures", fold=True, monkeypatch=monkeypatch)
    stats = outcome["detection"]
    assert stats["suspicions"] > 0 and stats["detections"] > 0
    assert stats["heartbeats_dropped"] > 0


@pytest.mark.parametrize("name", ["gray-failures", "idle-stop-restart"])
def test_stepped_run_until_matches_stepwise(name, monkeypatch):
    folded = _outcome(name, fold=True, monkeypatch=monkeypatch, step_s=0.7)
    stepwise = _outcome(name, fold=False, monkeypatch=monkeypatch)
    _assert_same(folded, stepwise)


def test_stepped_heartbeat_counts_match_at_every_step(monkeypatch):
    """After each ``run(until=T)`` the beats at or before T have arrived."""
    seen = []
    for fold in (True, False):
        with monkeypatch.context() as patch:
            if not fold:
                _refuse_fold(patch)
            platform = CanaryPlatform(SCENARIOS["gray-failures"][0], seed=3)
            platform.submit_batch()
            steps = []
            until = 0.0
            while platform.sim.pending:
                until += 0.7
                platform.run(until=until)
                detection = platform.detection
                steps.append((
                    platform.sim.now,
                    detection.heartbeats_sent,
                    detection.heartbeats_dropped,
                    dict(detection._last_beat),
                    {k: tuple(v) for k, v in detection._history.items()},
                ))
            seen.append(steps)
    assert seen[0] == seen[1]


def test_traced_run_matches_stepwise(monkeypatch):
    folded = _outcome(
        "gray-failures", fold=True, monkeypatch=monkeypatch, traced=True
    )
    stepwise = _outcome(
        "gray-failures", fold=False, monkeypatch=monkeypatch, traced=True
    )
    assert sum(folded["spans"].values()) > 100
    _assert_same(folded, stepwise)


def _bare_module(fold: bool, monkeypatch) -> dict:
    """The detector alone on a bare cluster: an idle node dies (no
    container loss notifies anything), a waiter lands on a healthy node,
    and the owner unfolds every node where its keep-alive turns false."""
    fired = []
    with monkeypatch.context() as patch:
        if not fold:
            _refuse_fold(patch)
        sim = Simulator(seed=1)
        cluster = Cluster(4)
        module = DetectionModule(sim, cluster)
        module.ensure_running(lambda: sim.now < 30.0)
        sim.call_at(30.0, module.unfold)
        doomed, watched = (node.node_id for node in cluster.nodes[:2])
        sim.call_at(5.0, lambda: cluster.fail_node(doomed, sim.now))
        sim.call_at(
            12.0,
            lambda: module.notify_after_detection(
                watched, lambda: fired.append(sim.now)
            ),
        )
        sim.run()
    return {
        "stats": asdict(module.stats()),
        "latencies": module.detection_latencies,
        "fired": fired,
        "now": sim.now,
        "pushes": collect_engine_stats(sim).pushes,
    }


def test_bare_module_matches_stepwise(monkeypatch):
    folded = _bare_module(True, monkeypatch)
    stepwise = _bare_module(False, monkeypatch)
    assert folded["stats"]["detections"] == 1 and len(folded["fired"]) == 1
    assert folded["now"] > 30.0
    assert folded["pushes"] < stepwise["pushes"]
    for key in ("stats", "latencies", "fired", "now"):
        assert folded[key] == stepwise[key], key
