"""S39 placement-policy layer: equivalence and properties."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.topology import Topology
from repro.common.types import RuntimeKind
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.faas.container import Container, ContainerPurpose
from repro.faas.controller import FaaSController
from repro.faas.runtimes import RuntimeRegistry
from repro.network.config import NetworkModelConfig
from repro.network.fabric import FlowNetwork
from repro.policies import (
    DEFAULT_PLACEMENT,
    PLACEMENT_POLICIES,
    ContentionAwarePolicy,
    CostMinimizingPolicy,
    LeastLoadedPolicy,
    LocalityPolicy,
    PlacementPolicy,
    RoundRobinPolicy,
    SuspicionAwarePolicy,
)
from repro.replication.placement import ReplicaPlacer
from repro.sim.engine import Simulator
from repro.storage.tiers import TierRegistry

GB = 2**30


def _attach(node, memory=GB, count=1):
    """Occupy *count* slots on *node* with dummy function containers."""
    runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
    for i in range(count):
        container = Container(
            f"stub-{node.node_id}-{i}-{len(node.containers)}",
            runtime,
            node,
            purpose=ContainerPurpose.FUNCTION,
            memory_bytes=memory,
        )
        node.attach(container)


def _container(node, index):
    """A function container bound to *node* but not attached to it."""
    runtime = RuntimeRegistry().get(RuntimeKind.PYTHON)
    return Container(
        f"launch-{node.node_id}-{index}",
        runtime,
        node,
        purpose=ContainerPurpose.FUNCTION,
        memory_bytes=GB,
    )


def _legacy_controller_rank(candidates):
    """The pre-policy controller ranking, verbatim."""
    return max(
        candidates,
        key=lambda n: (n.slots_free, n.profile.speed_factor, -n.index),
    )


def _legacy_replica_choose(cluster, memory, function_nodes, existing):
    """The pre-policy ``ReplicaPlacer.choose_node`` body, verbatim."""
    candidates = cluster.hosting_candidates(memory)
    if not candidates:
        return None
    if not existing:
        hosting_ids = {n.node_id for n in function_nodes if n.alive}
        co_located = [c for c in candidates if c.node_id in hosting_ids]
        pool = co_located or candidates
        return max(
            pool,
            key=lambda n: (n.profile.speed_factor, n.slots_free, -n.index),
        )
    topo = cluster.topology
    replica_ids = {other.node_id for other in existing}
    replica_racks = {other.rack for other in existing}

    def min_distance(candidate):
        if candidate.node_id in replica_ids:
            return topo.SAME_NODE
        if candidate.rack in replica_racks:
            return topo.SAME_RACK
        return topo.CROSS_RACK

    return max(
        candidates,
        key=lambda n: (
            min_distance(n),
            n.profile.speed_factor,
            n.slots_free,
            -n.index,
        ),
    )


# ----------------------------------------------------------------------
# Factory / config plumbing
# ----------------------------------------------------------------------
class TestFactory:
    def test_registry_has_all_six(self):
        assert set(PLACEMENT_POLICIES) == {
            "locality",
            "round-robin",
            "least-loaded",
            "contention",
            "cost",
            "suspicion",
        }
        assert DEFAULT_PLACEMENT == "locality"

    def test_scenario_config_validates_placement(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            ScenarioConfig(workload="graph-bfs", placement="warlock")
        config = ScenarioConfig(workload="graph-bfs", placement="cost")
        assert config.with_(placement="contention").placement == "contention"

    def test_base_select_node_is_abstract(self):
        with pytest.raises(NotImplementedError):
            PlacementPolicy().select_node([])


# ----------------------------------------------------------------------
# Locality-policy equivalence with the pre-refactor code
# ----------------------------------------------------------------------
class TestLocalityEquivalence:
    def test_controller_ranking_matches_legacy_formula(self):
        cluster = Cluster(12)
        # Skew the picture: occupy slots unevenly so the ranking is
        # exercised beyond the all-empty tie-break.
        _attach(cluster.nodes[0], count=3)
        _attach(cluster.nodes[5], count=1)
        _attach(cluster.nodes[7], count=7)
        policy = LocalityPolicy()
        for memory in (GB, 4 * GB):
            candidates = cluster.hosting_candidates(memory)
            assert policy.select_node(candidates) is _legacy_controller_rank(
                candidates
            )

    def test_scripted_replica_trace_matches_legacy(self):
        """Replay a placement trace; every step must match the old code."""
        cluster = Cluster(12)
        placer = ReplicaPlacer(cluster)  # default policy = locality
        function_nodes = [cluster.nodes[2], cluster.nodes[9]]
        _attach(cluster.nodes[2], count=2)
        _attach(cluster.nodes[9], count=1)
        existing: list = []
        for step in range(8):
            expected = _legacy_replica_choose(
                cluster, GB, function_nodes, existing
            )
            actual = placer.choose_node(
                memory_bytes=GB,
                function_nodes=function_nodes,
                existing_replica_nodes=existing,
            )
            assert actual is expected, f"diverged at step {step}"
            _attach(actual)  # replica occupies a slot, as in the platform
            existing.append(actual)

    def test_replica_trace_with_dead_and_cordoned_nodes(self):
        cluster = Cluster(8)
        cluster.fail_node("node-03", 0.0)
        cluster.nodes[6].cordoned = True
        placer = ReplicaPlacer(cluster)
        existing = [cluster.nodes[1]]
        expected = _legacy_replica_choose(
            cluster, GB, [cluster.nodes[1]], existing
        )
        actual = placer.choose_node(
            memory_bytes=GB,
            function_nodes=[cluster.nodes[1]],
            existing_replica_nodes=existing,
        )
        assert actual is expected
        assert actual.node_id not in ("node-03", "node-06")

    def test_choose_node_none_when_cluster_full(self):
        cluster = Cluster(2)
        for node in cluster.nodes:
            _attach(node, count=node.slots_free)
        placer = ReplicaPlacer(cluster)
        assert (
            placer.choose_node(
                memory_bytes=GB,
                function_nodes=[],
                existing_replica_nodes=[],
            )
            is None
        )


# ----------------------------------------------------------------------
# Per-policy properties
# ----------------------------------------------------------------------
class TestRoundRobin:
    def test_fairness_visits_every_node_before_repeating(self):
        cluster = Cluster(8)
        policy = RoundRobinPolicy()
        picks = [
            policy.select_node(cluster.hosting_candidates(GB)).node_id
            for _ in range(8)
        ]
        assert len(set(picks)) == 8
        # Second cycle repeats the same rotation.
        second = [
            policy.select_node(cluster.hosting_candidates(GB)).node_id
            for _ in range(8)
        ]
        assert second == picks

    def test_skips_ineligible_nodes(self):
        cluster = Cluster(4)
        cluster.nodes[1].cordoned = True
        policy = RoundRobinPolicy()
        picks = {
            policy.select_node(cluster.hosting_candidates(GB)).node_id
            for _ in range(6)
        }
        assert "node-01" not in picks
        assert len(picks) == 3


class TestLeastLoaded:
    def test_monotonicity_load_repels_placement(self):
        cluster = Cluster(4)
        policy = LeastLoadedPolicy()
        first = policy.select_node(cluster.hosting_candidates(GB))
        _attach(first, count=2)
        second = policy.select_node(cluster.hosting_candidates(GB))
        assert second is not first
        # Loading every other node more brings the first node back.
        for node in cluster.nodes:
            if node is not first:
                _attach(node, count=4)
        assert policy.select_node(cluster.hosting_candidates(GB)) is first

    def test_steers_away_from_wedged_invoker_backlog(self):
        sim = Simulator(seed=0)
        controller = FaaSController(
            sim, Cluster(4), policy=LeastLoadedPolicy()
        )
        cluster = controller.cluster
        policy = controller.policy
        # Wedge the invoker of the otherwise-best node and start real
        # cold starts on it: a zombie accepts launches, never readies them.
        target = policy.select_node(cluster.hosting_candidates(GB))
        invoker = controller.invokers[target.node_id]
        invoker.wedge()
        for index in range(2):
            invoker.cold_start(_container(target, index), lambda c: None)
        sim.run(until=600.0)
        assert target.cold_starts_in_flight == 2
        assert policy.select_node(cluster.hosting_candidates(GB)) is not target

    def test_node_counter_matches_invoker_launches(self):
        sim = Simulator(seed=0)
        controller = FaaSController(sim, Cluster(2))
        node = controller.cluster.nodes[0]
        invoker = controller.invokers[node.node_id]

        def in_flight():
            assert node.cold_starts_in_flight == len(invoker._pending_ready)
            return node.cold_starts_in_flight

        launches = [_container(node, index) for index in range(5)]
        for container in launches[:3]:
            invoker.cold_start(container, lambda c: None)
        assert in_flight() == 3
        invoker.abort_cold_start(launches[0])
        assert in_flight() == 2
        sim.run()  # the two survivors become ready
        assert in_flight() == 0
        invoker.cold_start(launches[3], lambda c: None)
        invoker.wedge()
        invoker.cold_start(launches[4], lambda c: None)
        sim.run()  # a wedged invoker readies nothing
        assert in_flight() == 2
        invoker.abort_cold_start(launches[3])
        assert in_flight() == 1
        controller.cluster.fail_node(node.node_id, sim.now)
        assert in_flight() == 0


class TestContentionAware:
    @staticmethod
    def _fabric(num_nodes=4, num_racks=2):
        sim = Simulator(seed=0)
        cluster = Cluster(num_nodes, topology=Topology(num_racks=num_racks))
        network = FlowNetwork(
            sim,
            cluster=cluster,
            tiers=TierRegistry(),
            config=NetworkModelConfig(
                nic_bandwidth=100.0,
                uplink_bandwidth=1000.0,
                core_bandwidth=10000.0,
                registry_bandwidth=1000.0,
                hop_latency_s=0.0,
            ),
        )
        return sim, cluster, network

    def test_avoids_saturated_rack(self):
        sim, cluster, network = self._fabric()
        policy = ContentionAwarePolicy(network=network)
        # Saturate rack 0: long transfers between its two nodes plus a
        # cross-rack push keep nic+uplink members busy.
        rack0 = [n for n in cluster.nodes if n.rack == cluster.nodes[0].rack]
        other = [n for n in cluster.nodes if n.rack != rack0[0].rack]
        for _ in range(3):
            network.transfer(
                rack0[0].node_id,
                other[0].node_id,
                10_000.0,
                on_complete=lambda: None,
            )
        assert network.node_pressure(rack0[0].node_id) > 0
        pick = policy.select_node(cluster.hosting_candidates(GB))
        assert pick.node_id != rack0[0].node_id

    def test_degrades_to_static_rank_without_fabric(self):
        cluster = Cluster(6)
        policy = ContentionAwarePolicy()
        candidates = cluster.hosting_candidates(GB)
        expected = max(
            candidates,
            key=lambda n: (n.profile.speed_factor, n.slots_free, -n.index),
        )
        assert policy.select_node(candidates) is expected


class TestCostMinimizing:
    def test_prefers_fastest_effective_node(self):
        cluster = Cluster(6)
        policy = CostMinimizingPolicy()
        pick = policy.select_node(cluster.hosting_candidates(GB))
        best = max(
            cluster.nodes, key=lambda n: n.profile.speed_factor
        ).profile.speed_factor
        assert pick.profile.speed_factor == best

    def test_avoids_chaos_degraded_node(self):
        cluster = Cluster(6)
        policy = CostMinimizingPolicy()
        first = policy.select_node(cluster.hosting_candidates(GB))
        first.chaos_speed_factor = 0.05  # straggler: 20x slower, 20x bill
        assert policy.select_node(cluster.hosting_candidates(GB)) is not first

    def test_bin_packs_on_speed_ties(self):
        cluster = Cluster(6)
        policy = CostMinimizingPolicy()
        fastest = [
            n
            for n in cluster.nodes
            if n.profile.speed_factor
            == max(m.profile.speed_factor for m in cluster.nodes)
        ]
        assert len(fastest) >= 2
        _attach(fastest[1], count=2)  # partially full
        pick = policy.select_node(fastest)
        assert pick is fastest[1]


class _StubDetection:
    def __init__(self, scores):
        self._scores = scores

    def suspicion_score(self, node_id):
        return self._scores.get(node_id, 0.0)


class TestSuspicionAware:
    def test_avoids_cordoned_nodes_in_raw_candidate_lists(self):
        cluster = Cluster(4)
        cluster.nodes[0].cordoned = True
        policy = SuspicionAwarePolicy()
        # Hand the policy the raw node list (bypassing can_host filtering)
        # — it must still shun the cordoned node.
        pick = policy.select_node(list(cluster.nodes))
        assert not pick.cordoned

    def test_prefers_clean_history_over_flappy(self):
        cluster = Cluster(4)
        flappy = cluster.nodes[2]
        detection = _StubDetection({flappy.node_id: 3.0})
        policy = SuspicionAwarePolicy(detection=detection)
        pick = policy.select_node(cluster.hosting_candidates(GB))
        assert pick is not flappy

    def test_live_detector_history_feeds_score(self):
        from repro.detection import DetectionModule

        sim = Simulator(seed=0)
        cluster = Cluster(2)
        module = DetectionModule(sim, cluster)
        assert module.suspicion_score("node-00") == 0.0
        module.node_suspicions["node-00"] = 2
        assert module.suspicion_score("node-00") == 2.0
        module._suspected_at["node-00"] = 1.0
        assert module.suspicion_score("node-00") == 102.0
        module._declared.add("node-00")
        assert module.suspicion_score("node-00") == 1102.0


# ----------------------------------------------------------------------
# Replica-side behaviour shared by non-locality policies
# ----------------------------------------------------------------------
class TestDefaultReplicaRule:
    def test_spread_before_reuse(self):
        cluster = Cluster(4)
        policy = RoundRobinPolicy()
        existing = [cluster.nodes[0], cluster.nodes[1]]
        pick = policy.select_replica_node(
            cluster.hosting_candidates(GB),
            function_nodes=[],
            existing_replica_nodes=existing,
        )
        assert pick.node_id not in {n.node_id for n in existing}

    def test_falls_back_to_taken_nodes_when_all_hold_replicas(self):
        cluster = Cluster(2)
        policy = LeastLoadedPolicy()
        pick = policy.select_replica_node(
            cluster.hosting_candidates(GB),
            function_nodes=[],
            existing_replica_nodes=list(cluster.nodes),
        )
        assert pick is not None


# ----------------------------------------------------------------------
# End to end (the summary digests pin each policy's runs and repeats)
# ----------------------------------------------------------------------
def test_policies_actually_differ():
    """The zoo is not six spellings of the same ranking."""
    scenario = ScenarioConfig(
        workload="graph-bfs",
        strategy="canary",
        error_rate=0.15,
        num_functions=40,
        num_nodes=8,
    )
    makespans = {
        placement: run_scenario(
            scenario.with_(placement=placement), seed=11
        ).makespan_s
        for placement in PLACEMENT_POLICIES
    }
    assert len(set(makespans.values())) >= 3, makespans
