"""Unit tests for the estimator, strategies, placement, and the module."""

import pytest

from repro.cluster.cluster import Cluster
from repro.common.types import RuntimeKind
from repro.common.units import mb
from repro.core.ids import IdGenerator
from repro.core.jobs import Job, JobRequest
from repro.faas.controller import FaaSController
from repro.replication.estimator import FailureRateEstimator
from repro.replication.module import ReplicationModule
from repro.replication.placement import ReplicaPlacer
from repro.replication.strategies import (
    AggressiveReplication,
    DynamicReplication,
    LenientReplication,
    make_replication_strategy,
)
from repro.runtime_manager.manager import RuntimeManagerModule
from repro.sim.engine import Simulator

from tests.conftest import TINY


class TestFailureRateEstimator:
    def test_prior_before_observations(self):
        est = FailureRateEstimator(prior_rate=0.1)
        assert est.rate == pytest.approx(0.1)

    def test_converges_to_empirical_rate(self):
        est = FailureRateEstimator(prior_rate=0.05, prior_strength=10)
        est.record_failure(30)
        est.record_success(70)
        assert est.rate == pytest.approx(0.3, abs=0.03)

    def test_monotone_in_failures(self):
        est = FailureRateEstimator()
        before = est.rate
        est.record_failure()
        assert est.rate > before

    def test_reset(self):
        est = FailureRateEstimator()
        est.record_failure(5)
        est.reset()
        assert est.rate == pytest.approx(est.prior_rate)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FailureRateEstimator(prior_rate=1.5)
        with pytest.raises(ValueError):
            FailureRateEstimator(prior_strength=0)
        with pytest.raises(ValueError):
            FailureRateEstimator().record_failure(-1)


class TestStrategies:
    def target(self, strategy, functions=100, rate=0.15, duration=100.0,
               window=5.0):
        est = FailureRateEstimator(prior_rate=rate, prior_strength=1e9)
        return strategy.target_replicas(
            total_functions=functions,
            active_replicas=0,
            estimator=est,
            mean_function_duration_s=duration,
            replacement_window_s=window,
        )

    def test_dynamic_scales_with_rate(self):
        dr = DynamicReplication()
        low = self.target(dr, rate=0.01)
        high = self.target(dr, rate=0.50)
        assert high > low >= dr.min_replicas

    def test_dynamic_much_smaller_than_aggressive(self):
        dr, ar = DynamicReplication(), AggressiveReplication()
        assert self.target(dr) < self.target(ar)

    def test_dynamic_zero_functions(self):
        assert self.target(DynamicReplication(), functions=0) == 0

    def test_dynamic_cap(self):
        dr = DynamicReplication(max_fraction=0.1)
        # Absurd arrival rate: must clamp to 10% of functions.
        assert self.target(dr, rate=1.0, duration=1.0, window=50.0) == 10

    def test_aggressive_fraction(self):
        ar = AggressiveReplication(factor=0.5)
        assert self.target(ar, functions=100) == 50

    def test_lenient_always_one(self):
        lr = LenientReplication()
        assert self.target(lr, functions=1) == 1
        assert self.target(lr, functions=10_000) == 1
        assert self.target(lr, functions=0) == 0

    def test_factory(self):
        assert isinstance(make_replication_strategy("dynamic"), DynamicReplication)
        assert isinstance(
            make_replication_strategy("aggressive"), AggressiveReplication
        )
        assert isinstance(make_replication_strategy("lenient"), LenientReplication)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DynamicReplication(headroom=0.5)
        with pytest.raises(ValueError):
            AggressiveReplication(factor=0.0)


class TestReplicaPlacer:
    def test_first_replica_co_locates_with_functions(self):
        cluster = Cluster(8)
        placer = ReplicaPlacer(cluster)
        fn_node = cluster.nodes[3]
        chosen = placer.choose_node(
            memory_bytes=mb(256),
            function_nodes=[fn_node],
            existing_replica_nodes=[],
        )
        assert chosen is fn_node

    def test_later_replicas_spread_across_racks(self):
        cluster = Cluster(8)  # 4 racks, 2 nodes each
        placer = ReplicaPlacer(cluster)
        first = cluster.nodes[0]
        second = placer.choose_node(
            memory_bytes=mb(256),
            function_nodes=[first],
            existing_replica_nodes=[first],
        )
        assert second is not None
        assert second.rack != first.rack

    def test_none_when_cluster_full(self):
        cluster = Cluster(1)
        node = cluster.nodes[0]
        placer = ReplicaPlacer(cluster)
        node.fail(0.0)
        assert (
            placer.choose_node(
                memory_bytes=mb(256),
                function_nodes=[],
                existing_replica_nodes=[],
            )
            is None
        )


def make_replication_stack(num_nodes=4, strategy=None):
    sim = Simulator(seed=0)
    cluster = Cluster(num_nodes)
    controller = FaaSController(sim, cluster)
    manager = RuntimeManagerModule()
    module = ReplicationModule(
        sim,
        controller,
        manager,
        ReplicaPlacer(cluster),
        strategy or LenientReplication(),
        IdGenerator(),
    )
    return sim, cluster, controller, manager, module


def make_job(num_functions=10):
    job = Job(job_id="job-0000", request=JobRequest(
        workload=TINY, num_functions=num_functions))
    return job


class TestReplicationModule:
    def test_job_registration_launches_replicas(self):
        sim, _, controller, manager, module = make_replication_stack()
        module.register_job(make_job())
        assert module.replicas_launched == 1  # lenient: one per job
        sim.run()
        assert manager.replica_count(RuntimeKind.PYTHON) == 1

    def test_job_completion_retires_pool(self):
        sim, _, controller, manager, module = make_replication_stack()
        job = make_job()
        module.register_job(job)
        sim.run()
        module.complete_job(job)
        assert manager.replica_count(RuntimeKind.PYTHON) == 0
        assert module.replicas_retired >= 1

    def test_claim_triggers_replacement(self):
        sim, _, controller, manager, module = make_replication_stack()
        module.register_job(make_job())
        sim.run()
        claimed = manager.claim_replica(RuntimeKind.PYTHON, "fn-x")
        assert claimed is not None
        # Replacement launched because the job is still registered.
        assert module.replicas_launched == 2
        sim.run()
        assert manager.replica_count(RuntimeKind.PYTHON) == 1

    def test_replica_loss_triggers_replacement(self):
        sim, cluster, controller, manager, module = make_replication_stack()
        module.register_job(make_job())
        sim.run()
        replica = manager.warm_replicas(RuntimeKind.PYTHON)[0]
        controller.kill_container(replica, "injected")
        assert module.replicas_launched == 2

    def test_estimator_feedback(self):
        sim, _, controller, manager, module = make_replication_stack(
            strategy=DynamicReplication()
        )
        module.register_job(make_job(num_functions=100))
        before = module.estimator.rate
        module.observe_function_failure(RuntimeKind.PYTHON)
        assert module.estimator.rate > before
        module.observe_function_success(RuntimeKind.PYTHON)

    def test_no_replicas_for_unused_runtime(self):
        sim, _, controller, manager, module = make_replication_stack()
        module.register_job(make_job())
        assert module.target_for_kind(RuntimeKind.JAVA) == 0
