"""Tests for failure prediction and proactive mitigation."""

from repro.cluster.cluster import Cluster
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.prediction import predictor as predictor_module
from repro.prediction.predictor import NodeHealthPredictor

from tests.conftest import TINY


class TestNodeHealthPredictor:
    def make(self):
        cluster = Cluster(4)
        return cluster, NodeHealthPredictor(cluster)

    def test_quiet_nodes_have_zero_risk(self):
        cluster, predictor = self.make()
        assert predictor.risk(cluster.nodes[0], now=100.0) == 0.0
        assert predictor.predict_failing(100.0) == []

    def test_fault_burst_raises_risk(self):
        cluster, predictor = self.make()
        node = cluster.nodes[0]
        for t in (1.0, 2.0, 3.0):
            predictor.observe_fault(node.node_id, t)
        assert predictor.risk(node, now=4.0) >= 3.0
        assert node in predictor.predict_failing(4.0)

    def test_old_faults_age_out_of_the_window(self, monkeypatch):
        monkeypatch.setattr(predictor_module, "WINDOW_S", 5.0)
        cluster, predictor = self.make()
        node = cluster.nodes[0]
        predictor.observe_fault(node.node_id, 1.0)
        predictor.observe_fault(node.node_id, 2.0)
        assert predictor.risk(node, now=3.0) > 0
        assert predictor.risk(node, now=20.0) == 0.0

    def test_hardware_age_weights_risk(self, monkeypatch):
        monkeypatch.setattr(predictor_module, "RISK_THRESHOLD", 1e9)
        cluster, predictor = self.make()
        by_weight = sorted(
            cluster.nodes, key=lambda n: n.profile.failure_weight
        )
        newest, oldest = by_weight[0], by_weight[-1]
        predictor.observe_fault(newest.node_id, 1.0)
        predictor.observe_fault(oldest.node_id, 1.0)
        assert predictor.risk(oldest, 2.0) > predictor.risk(newest, 2.0)

    def test_dead_nodes_not_predicted(self):
        cluster, predictor = self.make()
        node = cluster.nodes[0]
        for t in (1.0, 2.0, 3.0):
            predictor.observe_fault(node.node_id, t)
        cluster.fail_node(node.node_id, 4.0)
        assert node not in predictor.predict_failing(5.0)

    def test_clear_resets_history(self):
        cluster, predictor = self.make()
        node = cluster.nodes[0]
        predictor.observe_fault(node.node_id, 1.0)
        predictor.clear(node.node_id)
        assert predictor.risk(node, 2.0) == 0.0


def run_node_failure_job(*, enable_prediction, seed=7, num_functions=40):
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=4,
            strategy="canary",
            error_rate=0.0,
            node_failure_count=1,
            node_failure_window=(12.0, 20.0),
            node_failure_precursors=3,
            prediction=enable_prediction,
        ),
        seed=seed,
    )
    job = platform.submit_job(
        JobRequest(workload=TINY, num_functions=num_functions)
    )
    platform.run()
    return platform, job


class TestProactiveMitigation:
    def test_precursors_fire_before_node_death(self):
        platform, job = run_node_failure_job(enable_prediction=False)
        assert job.done
        precursor_events = [
            e for e in platform.metrics.failures if e.reason == "precursor"
        ]
        assert precursor_events

    def test_drain_migrates_functions_before_failure(self):
        platform, job = run_node_failure_job(enable_prediction=True)
        assert job.done
        assert platform.mitigator is not None
        assert platform.mitigator.cordons >= 1
        assert platform.mitigator.migrations > 0
        # Migrated attempts carry the "migration" label.
        vias = {
            a.via
            for e in job.executions
            for a in e.attempts
        }
        assert "migration" in vias

    def test_prediction_reduces_node_failure_losses(self):
        with_pred, _ = run_node_failure_job(enable_prediction=True)
        without, _ = run_node_failure_job(enable_prediction=False)

        def node_losses(platform):
            return sum(
                1
                for e in platform.metrics.failures
                if e.reason.startswith("node-failure")
            )

        # The drained node was (nearly) empty when it died.
        assert node_losses(with_pred) < node_losses(without)

    def test_prediction_reduces_total_recovery(self):
        with_pred, _ = run_node_failure_job(enable_prediction=True)
        without, _ = run_node_failure_job(enable_prediction=False)
        assert (
            with_pred.metrics.total_recovery_time()
            <= without.metrics.total_recovery_time()
        )

    def test_mitigator_stops_ticking_after_jobs_finish(self):
        platform, job = run_node_failure_job(enable_prediction=True)
        assert job.done
        # The run loop drained: no perpetual tick kept the queue alive.
        assert platform.sim.pending == 0
        assert platform.mitigator is not None
        assert not platform.mitigator._running

    def test_all_functions_still_complete_exactly_once(self):
        platform, job = run_node_failure_job(enable_prediction=True)
        assert platform.summary().completed == 40
        assert platform.metrics.unrecovered_failures() == []
        assert platform.database.check_referential_integrity() == []
