"""Heartbeat detection and backoff policy (the gray-failure stack).

Detection latency is *emergent* here: a node failure is noticed when its
heartbeats stop and the phi-accrual threshold plus the confirm timeout run
out — not after a constant ``detection_delay_s``.  The pins below fix the
resulting distributions per seed.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.detection import BackoffPolicy, DetectionConfig, DetectionModule
from repro.detection.monitor import (
    HEARTBEAT_INTERVAL_S,
    HEARTBEAT_JITTER,
    MIN_STD_S,
    PROCESSING_DELAY_S,
)
from repro.faults.chaos import ChaosConfig
from repro.sim.engine import Simulator
from repro.workloads.profiles import get_workload


def run_platform(seed=42, n=40, **kwargs):
    platform = CanaryPlatform(
        ScenarioConfig(num_nodes=16, strategy="canary", **kwargs), seed=seed
    )
    platform.submit_job(
        JobRequest(workload=get_workload("graph-bfs"), num_functions=n)
    )
    platform.run()
    return platform


class TestBackoffPolicy:
    def test_unjittered_schedule_is_exact(self):
        policy = BackoffPolicy()
        assert policy.delay(0) == pytest.approx(0.2)
        assert policy.delay(1) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(3.2)
        # 0.2 * 2^5 = 6.4 caps at MAX_S.
        assert policy.delay(5) == pytest.approx(5.0)

    def test_jitter_scales_the_delay(self):
        policy = BackoffPolicy()
        assert policy.delay(2, u=1.0) == pytest.approx(0.8 * 1.5)
        assert policy.delay(2, u=0.0) == pytest.approx(0.8)

    def test_validation(self):
        policy = BackoffPolicy()
        with pytest.raises(ValueError):
            policy.delay(-1)
        with pytest.raises(ValueError):
            policy.delay(0, u=2.0)


class TestSuspectAfter:
    def test_empty_history_uses_configured_period(self):
        module = DetectionModule(Simulator(), Cluster(2))
        expected_mu = HEARTBEAT_INTERVAL_S * (1.0 + 0.5 * HEARTBEAT_JITTER)
        threshold = module.suspect_after("node-00")
        assert threshold == pytest.approx(
            expected_mu + module._z * MIN_STD_S
        )
        # The phi-8 quantile sits a bit over 5 sigma out.
        assert 5.0 < module._z < 6.0

    def test_threshold_tracks_observed_gaps(self):
        module = DetectionModule(Simulator(), Cluster(2))
        from collections import deque

        module._history["node-00"] = deque([0.5] * 10, maxlen=20)
        tight = module.suspect_after("node-00")
        module._history["node-01"] = deque([2.0] * 10, maxlen=20)
        slow = module.suspect_after("node-01")
        assert slow > tight > 0.5


class TestHealthyCluster:
    def test_no_suspicions_without_faults(self):
        platform = run_platform(error_rate=0.0, detection=DetectionConfig())
        stats = platform.detection.stats()
        assert stats.heartbeats_sent > 0
        assert stats.suspicions == 0
        assert stats.false_suspicions == 0
        assert stats.detections == 0
        assert stats.cordoned_s == 0.0
        summary = platform.summary()
        assert summary.completed == 40
        assert summary.detections == 0
        assert summary.degraded_s == 0.0

    def test_heartbeats_stop_when_idle(self):
        # The monitor must not keep the sim alive after the last job.
        platform = run_platform(error_rate=0.0, detection=DetectionConfig())
        assert platform.sim.pending == 0


class TestNodeFailureDetection:
    def test_emergent_detection_latency(self):
        platform = run_platform(
            error_rate=0.0,
            node_failure_count=1,
            node_failure_window=(10.0, 11.0),
            detection=DetectionConfig(),
        )
        stats = platform.detection.stats()
        assert stats.suspicions == 1
        assert stats.false_suspicions == 0
        assert stats.detections == 1
        # Latency = silence until the phi threshold + the confirm timeout:
        # strictly more than the 4 s confirm, well under a beat + confirm*2.
        assert stats.detection_latency_mean_s > 4.0
        assert stats.detection_latency_mean_s < 6.0
        assert stats.detection_latency_mean_s == pytest.approx(4.52, abs=0.2)
        summary = platform.summary()
        assert summary.completed == 40
        assert summary.detections == 1
        assert summary.detection_latency_mean_s == pytest.approx(
            stats.detection_latency_mean_s
        )

    def test_latency_distribution_is_seed_deterministic(self):
        def latencies(seed):
            platform = run_platform(
                seed=seed,
                error_rate=0.0,
                node_failure_count=2,
                node_failure_window=(8.0, 14.0),
                detection=DetectionConfig(),
            )
            return tuple(platform.detection.detection_latencies)

        assert latencies(5) == latencies(5)
        assert latencies(5) != latencies(6)


class TestFalseSuspicions:
    def test_straggler_causes_cordon_then_reinstate(self):
        chaos = ChaosConfig(
            stragglers=1,
            straggler_window=(8.0, 9.0),
            straggler_duration_s=10.0,
            straggler_slowdown=0.2,
        )
        platform = run_platform(
            error_rate=0.0, detection=DetectionConfig(), chaos=chaos
        )
        stats = platform.detection.stats()
        # The stretched heartbeat gap trips the detector exactly once; the
        # next (late) beat arrives before the confirm timeout and reinstates.
        assert stats.false_suspicions == 1
        assert stats.detections == 0
        assert stats.cordoned_s > 0.0
        # Reinstated: no node left cordoned, nothing fenced, job finished.
        assert all(not node.cordoned for node in platform.cluster.nodes)
        assert len(platform.cluster.alive_nodes()) == 16
        assert platform.summary().completed == 40


class TestNotifyAfterDetection:
    def test_declared_node_flushes_waiters(self):
        sim = Simulator(seed=1)
        cluster = Cluster(4)
        module = DetectionModule(sim, cluster)
        module.ensure_running(lambda: sim.now < 30.0)
        # Keep-alive contract: folded beats poll nothing, so the owner
        # unfolds them where the predicate turns false.
        sim.call_at(30.0, module.unfold)
        doomed = cluster.nodes[0].node_id
        fired = []
        sim.call_at(5.0, lambda: cluster.fail_node(doomed, 5.0))
        sim.call_at(
            6.0,
            lambda: module.notify_after_detection(
                doomed, lambda: fired.append(sim.now)
            ),
        )
        sim.run()
        assert module.is_declared(doomed)
        assert len(fired) == 1
        # Verdict lands after suspicion + confirm, then processing delay.
        assert fired[0] > 9.0
        assert fired[0] == pytest.approx(
            module.detection_latencies[0] + 5.0 + PROCESSING_DELAY_S,
            abs=1e-9,
        )

    def test_healthy_node_waiter_fires_on_next_heartbeat(self):
        sim = Simulator(seed=1)
        cluster = Cluster(4)
        module = DetectionModule(sim, cluster)
        module.ensure_running(lambda: sim.now < 10.0)
        sim.call_at(10.0, module.unfold)
        target = cluster.nodes[1].node_id
        fired = []
        sim.call_at(
            2.0,
            lambda: module.notify_after_detection(
                target, lambda: fired.append(sim.now)
            ),
        )
        sim.run()
        assert len(fired) == 1
        # Next beat is within one jittered period; plus processing delay.
        assert 2.0 < fired[0] < 2.0 + 0.55 + PROCESSING_DELAY_S

    def test_waiter_keeps_healthy_node_folded(self):
        sim = Simulator(seed=1)
        cluster = Cluster(4)
        module = DetectionModule(sim, cluster)
        module.ensure_running(lambda: sim.now < 10.0)
        sim.call_at(10.0, module.unfold)
        target = cluster.nodes[1].node_id
        seen = {}

        def fire():
            seen["fired"] = sim.now
            seen["folded_at_fire"] = target in module._folded
            seen["last_beat_at_fire"] = module._last_beat[target]

        def notify():
            module.notify_after_detection(target, fire)
            seen["folded"] = module._folded.get(target)

        sim.call_at(2.0, notify)
        sim.run()
        # The node stays folded for the waiter, which fires off its folded
        # next beat (the first at or after the notify).
        assert seen["folded"] is not None
        next_beat = seen["folded"][1]
        assert 2.0 <= next_beat < 2.0 + 0.55
        assert seen["fired"] == next_beat + PROCESSING_DELAY_S
        assert seen["folded_at_fire"]
        assert seen["last_beat_at_fire"] == next_beat

    @staticmethod
    def _waiter_then_death(fold, monkeypatch):
        """A waiter lands on a healthy node that dies before its next
        beat: the unfold at the death must replace the waiter's event."""
        with monkeypatch.context() as patch:
            if not fold:
                patch.setattr(
                    DetectionModule, "_can_fold", lambda self, node: False
                )
            sim = Simulator(seed=1)
            cluster = Cluster(4)
            module = DetectionModule(sim, cluster)
            module.ensure_running(lambda: sim.now < 20.0)
            sim.call_at(20.0, module.unfold)
            target = cluster.nodes[1].node_id
            fired = []

            def notify_then_die():
                module.notify_after_detection(
                    target, lambda: fired.append(sim.now)
                )
                cluster.fail_node(target, sim.now)

            sim.call_at(2.0, notify_then_die)
            sim.run()
        return fired, module.stats(), sim.now

    def test_waiter_on_a_node_that_dies_matches_stepwise(self, monkeypatch):
        folded = self._waiter_then_death(True, monkeypatch)
        stepwise = self._waiter_then_death(False, monkeypatch)
        fired, stats, _ = folded
        # Released by the declaration, not by a beat that never comes.
        assert stats.detections == 1 and len(fired) == 1
        assert fired[0] > 2.0 + 4.0
        assert folded == stepwise

    def test_already_declared_fires_after_processing_delay(self):
        sim = Simulator(seed=1)
        cluster = Cluster(2)
        module = DetectionModule(sim, cluster)
        module._declared.add("node-00")
        fired = []
        module.notify_after_detection("node-00", lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(PROCESSING_DELAY_S)]


class TestRetiredNodeWaiters:
    """A node retired between a container kill and its next beat must not
    strand the recovery waiting for that beat (the job would stay open and
    the heartbeats tick forever)."""

    @staticmethod
    def _scenario():
        from repro.autoscale import AutoscaleConfig
        from repro.traffic import PoissonArrivals, Tenant, TrafficConfig

        tenant = Tenant(
            name="t",
            arrivals=PoissonArrivals(rate_per_s=2.0),
            workloads=("micro-python",),
        )
        return ScenarioConfig(
            workload="micro-python",
            strategy="canary",
            error_rate=0.3,
            num_nodes=8,
            traffic=TrafficConfig(tenants=(tenant,), duration_s=120.0),
            autoscale=AutoscaleConfig(min_nodes=2, max_nodes=12),
            detection=DetectionConfig(),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_autoscaler_drain_completes_every_job(self, seed):
        platform = CanaryPlatform(self._scenario(), seed=seed)
        platform.run(until=600.0)
        summary = platform.summary()
        assert summary.scale_ins > 0
        assert not platform.detection._waiters
        assert all(job.done for job in platform.jobs.values())
        assert summary.completed + summary.unrecovered + (
            summary.invocations_shed
        ) == summary.invocations_offered
        assert platform.sim.pending == 0 and platform.sim.now < 600.0
