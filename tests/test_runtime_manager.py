"""Unit tests for the Runtime Manager Module."""

import pytest

from repro.cluster.cluster import Cluster
from repro.common.types import ContainerState, RuntimeKind
from repro.core.database import CanaryDatabase
from repro.faas.container import Container, ContainerPurpose
from repro.faas.runtimes import RuntimeRegistry
from repro.runtime_manager.manager import RuntimeManagerModule


@pytest.fixture
def cluster():
    return Cluster(4)


def make_container(cluster, cid, *, purpose=ContainerPurpose.REPLICA,
                   kind=RuntimeKind.PYTHON, node_index=0, warm=True):
    node = cluster.nodes[node_index]
    runtime = RuntimeRegistry().get(kind)
    container = Container(cid, runtime, node, purpose=purpose)
    node.attach(container)
    container.mark_launching(0.0)
    container.mark_ready(1.0, warm=warm)
    return container


def make_db_with_worker_rows(cluster):
    db = CanaryDatabase()
    for node in cluster.nodes:
        db.worker_info.insert(
            {"worker_id": node.node_id, "role": "invoker",
             "cpu_model": node.profile.name,
             "memory_bytes": node.profile.memory_bytes,
             "container_slots": node.profile.container_slots,
             "rack": node.rack, "alive": True}
        )
    db.job_info.insert({"job_id": "j1"})
    return db


class TestReplicaRegistry:
    def test_register_requires_replica_purpose(self, cluster):
        manager = RuntimeManagerModule()
        container = make_container(
            cluster, "c0", purpose=ContainerPurpose.FUNCTION, warm=False
        )
        with pytest.raises(ValueError):
            manager.register_replica(container, "j1", "rep-1")

    def test_register_and_count(self, cluster):
        manager = RuntimeManagerModule()
        manager.register_replica(make_container(cluster, "c0"), "j1", "rep-0")
        manager.register_replica(make_container(cluster, "c1"), "j1", "rep-1")
        assert manager.replica_count(RuntimeKind.PYTHON) == 2
        assert manager.replica_count(RuntimeKind.JAVA) == 0

    def test_database_rows_written(self, cluster):
        db = make_db_with_worker_rows(cluster)
        manager = RuntimeManagerModule(db)
        manager.register_replica(make_container(cluster, "c0"), "j1", "rep-0")
        row = db.replication_info.get("rep-0")
        assert row["runtime"] == "python"
        assert row["worker_id"] == "node-00"
        assert db.check_referential_integrity() == []

    def test_availability_listener_fires(self, cluster):
        manager = RuntimeManagerModule()
        seen = []
        manager.on_replica_available(seen.append)
        manager.register_replica(make_container(cluster, "c0"), "j1", "rep-0")
        assert seen == [RuntimeKind.PYTHON]


class TestClaim:
    def test_claim_prefers_other_nodes_and_fast_hardware(self, cluster):
        manager = RuntimeManagerModule()
        on_failed_node = make_container(cluster, "c0", node_index=1)
        elsewhere = make_container(cluster, "c1", node_index=2)
        manager.register_replica(on_failed_node, "j1", "rep-0")
        manager.register_replica(elsewhere, "j1", "rep-1")
        claimed = manager.claim_replica(
            RuntimeKind.PYTHON, "fn-1", failed_node=cluster.nodes[1]
        )
        assert claimed is elsewhere
        assert claimed.current_function == "fn-1"
        assert manager.claims_served == 1
        # The claimed container left the registry.
        assert manager.replica_count(RuntimeKind.PYTHON) == 1

    def test_claim_empty_pool_returns_none(self, cluster):
        manager = RuntimeManagerModule()
        assert manager.claim_replica(RuntimeKind.PYTHON, "fn-1") is None
        assert manager.claims_missed == 1

    def test_claim_notifies_listeners(self, cluster):
        manager = RuntimeManagerModule()
        claims = []
        manager.on_replica_claimed(lambda kind, job: claims.append((kind, job)))
        manager.register_replica(make_container(cluster, "c0"), "j1", "rep-0")
        manager.claim_replica(RuntimeKind.PYTHON, "fn-1")
        assert claims == [(RuntimeKind.PYTHON, "j1")]

    def test_claim_skips_dead_nodes(self, cluster):
        manager = RuntimeManagerModule()
        replica = make_container(cluster, "c0", node_index=1)
        manager.register_replica(replica, "j1", "rep-0")
        cluster.nodes[1].fail(0.0)
        assert manager.claim_replica(RuntimeKind.PYTHON, "fn-1") is None

    def test_unregister(self, cluster):
        db = make_db_with_worker_rows(cluster)
        manager = RuntimeManagerModule(db)
        replica = make_container(cluster, "c0")
        manager.register_replica(replica, "j1", "rep-0")
        replica.terminate(2.0, ContainerState.KILLED)
        manager.unregister_replica(replica)
        assert manager.replica_count(RuntimeKind.PYTHON) == 0
        assert db.replication_info.get("rep-0")["state"] == "killed"

    def test_replica_locations(self, cluster):
        manager = RuntimeManagerModule()
        manager.register_replica(
            make_container(cluster, "c0", node_index=2), "j1", "rep-0"
        )
        locations = manager.replica_locations(RuntimeKind.PYTHON)
        assert [n.node_id for n in locations] == ["node-02"]
