"""Unit tests for nodes, heterogeneity, topology, and the cluster."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.heterogeneity import (
    CHAMELEON_PROFILES,
    HeterogeneityModel,
    NodeProfile,
)
from repro.cluster.node import Node
from repro.cluster.topology import Topology
from repro.common.errors import PlacementError
from repro.common.types import RuntimeKind
from repro.common.units import gb, mb
from repro.faas.container import Container
from repro.faas.runtimes import RuntimeRegistry


def make_node(slots=4, memory=gb(4), speed=1.0, index=0) -> Node:
    profile = NodeProfile(
        name="test",
        speed_factor=speed,
        memory_bytes=memory,
        container_slots=slots,
        failure_weight=1.0,
    )
    return Node(f"node-{index:02d}", index, profile, "rack-0")


def make_container(node, cid="c0", memory=mb(512)) -> Container:
    runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
    return Container(cid, runtime, node, memory_bytes=memory)


class TestNodeProfile:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"speed_factor": 0.0},
            {"speed_factor": -1.0},
            {"container_slots": 0},
            {"memory_bytes": 0},
            {"failure_weight": -0.1},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        base = dict(
            name="x",
            speed_factor=1.0,
            memory_bytes=gb(1),
            container_slots=4,
            failure_weight=1.0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            NodeProfile(**base)

    def test_chameleon_profiles_all_192gb(self):
        for profile in CHAMELEON_PROFILES:
            assert profile.memory_bytes == gb(192)


class TestNode:
    def test_attach_reserves_capacity(self):
        node = make_node(slots=2)
        container = make_container(node)
        node.attach(container)
        assert node.slots_free == 1
        assert node.memory_free == node.profile.memory_bytes - mb(512)

    def test_detach_releases_capacity(self):
        node = make_node()
        container = make_container(node)
        node.attach(container)
        node.detach(container)
        assert node.slots_free == node.profile.container_slots
        assert node.memory_used == 0.0

    def test_detach_is_idempotent(self):
        node = make_node()
        container = make_container(node)
        node.attach(container)
        node.detach(container)
        node.detach(container)
        assert node.memory_used == 0.0

    def test_attach_beyond_slots_raises(self):
        node = make_node(slots=1)
        node.attach(make_container(node, "a"))
        with pytest.raises(PlacementError):
            node.attach(make_container(node, "b"))

    def test_attach_beyond_memory_raises(self):
        node = make_node(memory=mb(600))
        node.attach(make_container(node, "a", memory=mb(512)))
        with pytest.raises(PlacementError):
            node.attach(make_container(node, "b", memory=mb(512)))

    def test_dead_node_cannot_host(self):
        node = make_node()
        node.fail(at_time=1.0)
        assert not node.can_host(mb(1))

    def test_fail_returns_lost_containers(self):
        node = make_node()
        a, b = make_container(node, "a"), make_container(node, "b")
        node.attach(a)
        node.attach(b)
        lost = node.fail(at_time=2.0)
        assert {c.container_id for c in lost} == {"a", "b"}
        assert node.memory_used == 0.0
        assert node.failed_at == 2.0

    def test_scale_duration_uses_speed_factor(self):
        fast = make_node(speed=2.0)
        slow = make_node(speed=0.5)
        assert fast.scale_duration(10.0) == 5.0
        assert slow.scale_duration(10.0) == 20.0


class TestHeterogeneityModel:
    def test_assignment_is_deterministic(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        m1 = HeterogeneityModel(rng=rng1)
        m2 = HeterogeneityModel(rng=rng2)
        assert [m1.profile_for(i).name for i in range(16)] == [
            m2.profile_for(i).name for i in range(16)
        ]

    def test_population_is_balanced(self):
        model = HeterogeneityModel(rng=np.random.default_rng(1))
        names = [model.profile_for(i).name for i in range(15)]
        for profile in CHAMELEON_PROFILES:
            assert names.count(profile.name) == 5

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneityModel().profile_for(-1)

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneityModel(profiles=())

    def test_homogeneous(self):
        model = HeterogeneityModel(profiles=(CHAMELEON_PROFILES[0],))
        assert model.homogeneous()
        assert model.profile_for(5) is CHAMELEON_PROFILES[0]


class TestTopology:
    def test_round_robin_racks(self):
        topo = Topology(num_racks=3)
        assert topo.rack_for(0) == "rack-0"
        assert topo.rack_for(3) == "rack-0"
        assert topo.rack_for(4) == "rack-1"

    def test_distances(self):
        topo = Topology()
        assert topo.distance("r0", "n0", "r0", "n0") == Topology.SAME_NODE
        assert topo.distance("r0", "n0", "r0", "n1") == Topology.SAME_RACK
        assert topo.distance("r0", "n0", "r1", "n1") == Topology.CROSS_RACK

    def test_invalid_rack_count(self):
        with pytest.raises(ValueError):
            Topology(num_racks=0)

    def test_more_racks_than_nodes_leaves_racks_empty(self):
        # A 2-node cluster on an 8-rack topology occupies only the first
        # two racks; distances stay well-defined.
        cluster = Cluster(2, topology=Topology(num_racks=8))
        racks = {node.rack for node in cluster.nodes}
        assert racks == {"rack-0", "rack-1"}
        a, b = cluster.nodes
        assert cluster.topology.distance(
            a.rack, a.node_id, b.rack, b.node_id
        ) == Topology.CROSS_RACK

    def test_single_rack_distances(self):
        topo = Topology(num_racks=1)
        assert all(topo.rack_for(i) == "rack-0" for i in range(10))
        assert topo.distance("rack-0", "n0", "rack-0", "n0") == \
            Topology.SAME_NODE
        assert topo.distance("rack-0", "n0", "rack-0", "n1") == \
            Topology.SAME_RACK

    def test_rack_for_is_stable_under_reenumeration(self):
        # Rack assignment is a pure function of the node index, so
        # enumerating nodes repeatedly (or out of order) never moves a
        # node between racks.
        topo = Topology(num_racks=4)
        first = [topo.rack_for(i) for i in range(32)]
        second = [topo.rack_for(i) for i in reversed(range(32))]
        assert first == list(reversed(second))
        assert first[:4] == ["rack-0", "rack-1", "rack-2", "rack-3"]


class TestCluster:
    def test_size_and_iteration(self):
        cluster = Cluster(8)
        assert len(cluster) == 8
        assert len(list(cluster)) == 8

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_unknown_node_raises(self):
        with pytest.raises(PlacementError):
            Cluster(2).node("node-99")

    def test_fail_node_notifies_listeners(self):
        cluster = Cluster(3)
        seen = []
        cluster.on_node_failure(lambda node, lost: seen.append(node.node_id))
        cluster.fail_node("node-01", at_time=1.0)
        assert seen == ["node-01"]
        assert len(cluster.alive_nodes()) == 2

    def test_fail_dead_node_is_noop(self):
        cluster = Cluster(2)
        cluster.fail_node("node-00", 1.0)
        assert cluster.fail_node("node-00", 2.0) == []

    def test_total_slots_excludes_dead(self):
        cluster = Cluster(2)
        before = cluster.total_slots()
        cluster.fail_node("node-00", 1.0)
        assert cluster.total_slots() < before

    def test_pick_failure_victim_weighted(self):
        cluster = Cluster(16)
        rng = np.random.default_rng(0)
        counts: dict[str, int] = {}
        for _ in range(2000):
            victim = cluster.pick_failure_victim(rng)
            counts[victim.profile.name] = counts.get(victim.profile.name, 0) + 1
        # The oldest SKU (weight 3.0) must be picked most often.
        assert counts["xeon-gold-6126"] > counts["xeon-gold-6242"]

    def test_pick_failure_victim_none_when_all_dead(self):
        cluster = Cluster(1)
        cluster.fail_node("node-00", 0.0)
        assert cluster.pick_failure_victim(np.random.default_rng(0)) is None


def _uniform_weight_profiles(weight: float) -> tuple[NodeProfile, ...]:
    return (
        NodeProfile(
            name=f"sku-w{weight}",
            speed_factor=1.0,
            memory_bytes=gb(192),
            container_slots=48,
            failure_weight=weight,
        ),
    )


class TestVictimStreamUnification:
    """Regression: both weight branches must draw via the same primitive.

    The zero-total-weight branch used to draw via ``rng.integers`` (Lemire
    rejection) while the weighted branch used ``rng.choice`` (inverse-CDF
    on one uniform), so flipping a profile's failure_weight between 0 and
    ε changed the victim AND perturbed every subsequent draw on the
    stream.  Post-fix both branches invert one uniform.
    """

    def test_zero_and_epsilon_weights_agree(self):
        picks = {}
        for weight in (0.0, 1e-9):
            cluster = Cluster(
                8,
                heterogeneity=HeterogeneityModel(
                    profiles=_uniform_weight_profiles(weight),
                    rng=np.random.default_rng(1),
                ),
            )
            rng = np.random.default_rng(7)
            victim = cluster.pick_failure_victim(rng)
            # Same victim, same residual stream state.
            picks[weight] = (victim.node_id, float(rng.uniform()))
        assert picks[0.0] == picks[1e-9]

    def test_weighted_victim_stream_pinned(self):
        # Pins ``choice`` as the draw primitive on the default profiles:
        # any change to how the stream is consumed moves this sequence.
        cluster = Cluster(8)
        rng = np.random.default_rng(7)
        sequence = [
            cluster.pick_failure_victim(rng).node_id for _ in range(6)
        ]
        assert sequence == [
            "node-04",
            "node-07",
            "node-06",
            "node-01",
            "node-02",
            "node-07",
        ]
        assert float(rng.uniform()) == pytest.approx(
            0.005265304566, abs=1e-12
        )

    def test_zero_weight_draw_is_uniform(self):
        cluster = Cluster(
            8,
            heterogeneity=HeterogeneityModel(
                profiles=_uniform_weight_profiles(0.0),
                rng=np.random.default_rng(1),
            ),
        )
        rng = np.random.default_rng(0)
        counts: dict[str, int] = {}
        for _ in range(800):
            victim = cluster.pick_failure_victim(rng)
            counts[victim.node_id] = counts.get(victim.node_id, 0) + 1
        assert len(counts) == 8  # every node reachable
        assert max(counts.values()) < 3 * min(counts.values())
