"""Gray-failure chaos layer: archetypes, degradation paths, determinism.

Two invariants anchor everything here: chaos *disabled* is byte-identical
to the pre-chaos platform (golden pins unchanged), and chaos *enabled* is a
pure function of the experiment seed.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.canary import CanaryPlatform
from repro.core.execution import FunctionExecution
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.detection import BackoffPolicy, DetectionConfig, backoff
from repro.faults.chaos import (
    PARTITION_CAPACITY_FACTOR,
    ChaosConfig,
    ChaosInjector,
    TierBrownout,
    default_chaos_preset,
)
from repro.network.config import NETWORK_PRESETS
from repro.storage.tiers import TierRegistry
from repro.trace.tracer import Tracer
from repro.workloads.profiles import get_workload


def run_platform(seed=42, n=40, strategy="canary", error_rate=0.0,
                 interval=1, tracer=None, **kwargs):
    platform = CanaryPlatform(
        ScenarioConfig(
            num_nodes=16, strategy=strategy, error_rate=error_rate, **kwargs
        ),
        seed=seed,
        tracer=tracer,
    )
    platform.submit_job(
        JobRequest(
            workload=get_workload("graph-bfs"),
            num_functions=n,
            checkpoint_interval=interval,
        )
    )
    platform.run()
    return platform


def chaos_instants(tracer, prefix):
    """Names of the ``chaos`` instants a traced run emitted for *prefix*
    (each applied fault emits one; a skipped fault emits none)."""
    return [
        span.name
        for span in tracer.spans()
        if span.kind == "chaos" and span.name.startswith(prefix)
    ]


class TestChaosConfig:
    def test_disabled_by_default(self):
        assert not ChaosConfig().enabled

    def test_preset_is_enabled(self):
        preset = default_chaos_preset()
        assert preset.enabled
        assert preset.stragglers == 2
        assert preset.zombies == 1
        assert preset.partitions == 1
        assert preset.tier_brownouts[0].mode == "refuse"

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(stragglers=-1)
        with pytest.raises(ValueError):
            ChaosConfig(stragglers=1, straggler_window=(5.0, 5.0))
        with pytest.raises(ValueError):
            ChaosConfig(stragglers=1, straggler_slowdown=1.5)
        with pytest.raises(ValueError):
            TierBrownout(tier="kv", start_s=1.0, duration_s=1.0, mode="flaky")
        with pytest.raises(ValueError):
            TierBrownout(tier="kv", start_s=1.0, duration_s=0.0)

    def test_unknown_tier_rejected_at_construction(self):
        chaos = ChaosConfig(
            tier_brownouts=(
                TierBrownout(tier="floppy", start_s=1.0, duration_s=1.0),
            )
        )
        with pytest.raises(Exception):
            CanaryPlatform(ScenarioConfig(num_nodes=4, chaos=chaos), seed=0)

    @pytest.mark.parametrize("kind", ["link_brownouts", "wan_flaps"])
    def test_link_archetypes_need_a_fabric(self, kind):
        # Without a fabric they have no link to cut.
        chaos = ChaosConfig(**{kind: 1})
        with pytest.raises(ValueError, match=kind):
            ScenarioConfig(num_nodes=4, chaos=chaos)
        ScenarioConfig(num_nodes=4, chaos=chaos,
                       network=NETWORK_PRESETS["10gbe"])


class TestDisabledByteIdentity:
    def test_disabled_chaos_config_matches_baseline(self):
        baseline = run_platform(error_rate=0.15).summary()
        disabled = run_platform(error_rate=0.15, chaos=ChaosConfig()).summary()
        assert disabled == baseline
        # New RunSummary fields sit at their defaults.
        assert baseline.detections == 0
        assert baseline.detection_latency_mean_s == 0.0
        assert baseline.false_suspicions == 0
        assert baseline.degraded_s == 0.0

    def test_no_injector_when_disabled(self):
        platform = run_platform(n=1, chaos=ChaosConfig())
        assert platform.chaos is None
        assert platform.detection is None


class TestEnabledDeterminism:
    def test_same_seed_bitwise_stable(self):
        kwargs = dict(
            error_rate=0.15,
            chaos=default_chaos_preset(),
            detection=DetectionConfig(),
            backoff=BackoffPolicy(),
        )
        first = run_platform(seed=3, **kwargs).summary()
        second = run_platform(seed=3, **kwargs).summary()
        assert first == second
        assert first != run_platform(seed=4, **kwargs).summary()
        assert first.completed == 40


def test_tracing_does_not_perturb_chaos():
    """The tests below count applied faults and backoffs in traced runs;
    tracing must leave the run itself unchanged for those counts to hold."""
    kwargs = dict(
        error_rate=0.25,
        interval=5,
        chaos=default_chaos_preset(),
        detection=DetectionConfig(),
        backoff=BackoffPolicy(),
    )
    untraced = run_platform(**kwargs)
    traced = run_platform(tracer=Tracer(), **kwargs)
    assert traced.summary() == untraced.summary()
    assert traced.chaos.degraded_window_s == untraced.chaos.degraded_window_s
    assert traced.metrics.failures == untraced.metrics.failures


class TestStragglers:
    def test_scale_duration_composes_speed_factors(self):
        cluster = Cluster(2)
        node = cluster.nodes[0]
        base = node.scale_duration(10.0)
        node.chaos_speed_factor = 0.25
        assert node.scale_duration(10.0) == pytest.approx(base / 0.25)
        node.chaos_speed_factor = 1.0
        # The ``== 1.0`` fast path restores the exact original expression.
        assert node.scale_duration(10.0) == base

    def test_straggle_window_restores_factor_exactly(self):
        chaos = ChaosConfig(
            stragglers=1,
            straggler_window=(2.0, 3.0),
            straggler_duration_s=5.0,
            straggler_slowdown=0.3,
        )
        tracer = Tracer()
        platform = run_platform(chaos=chaos, tracer=tracer)
        assert len(chaos_instants(tracer, "straggler:")) == 1
        # Window ended during the run: factors snapped back to exactly 1.0.
        assert all(
            node.chaos_speed_factor == 1.0 for node in platform.cluster.nodes
        )
        assert platform.summary().completed == 40

    def test_dead_node_straggle_is_skipped(self):
        chaos = ChaosConfig(stragglers=1, straggler_window=(5.0, 6.0))
        tracer = Tracer()
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=2, chaos=chaos),
            seed=0,
            tracer=tracer,
        )
        for node in platform.cluster.nodes:
            platform.cluster.fail_node(node.node_id, 0.0)
        platform.run()
        # The straggle window fired on a dead node and applied nothing.
        assert platform.sim.now >= 5.0
        assert chaos_instants(tracer, "straggler:") == []
        assert all(
            node.chaos_speed_factor == 1.0 for node in platform.cluster.nodes
        )


class TestZombies:
    CHAOS = ChaosConfig(
        zombies=1, zombie_window=(8.0, 9.0), zombie_kill_after_s=60.0
    )

    @staticmethod
    def zombie(platform):
        """The node that turned zombie, and its gray-fault onset."""
        ((node_id, onset),) = platform.chaos.gray_onset.items()
        return platform.cluster.node(node_id), onset

    def test_detection_fences_the_zombie(self):
        tracer = Tracer()
        platform = run_platform(
            chaos=self.CHAOS, detection=DetectionConfig(), tracer=tracer
        )
        stats = platform.detection.stats()
        # Heartbeat silence declares the zombie dead; the hard-kill backstop
        # is cancelled by the cluster failure listener.
        assert stats.detections == 1
        assert len(chaos_instants(tracer, "zombie:")) == 1
        node, onset = self.zombie(platform)
        assert node.failed_at < onset + self.CHAOS.zombie_kill_after_s
        summary = platform.summary()
        assert summary.completed == 40
        assert summary.degraded_s > 0.0

    def test_adopted_replica_on_zombie_node_recovers(self):
        # Regression: at seed 43 a primary dies at ~7.6 s and canary adopts
        # a warm replica on the node that turns zombie at ~8 s.  The adopted
        # container keeps ContainerPurpose.REPLICA, so a purpose-based loss
        # dispatch never told the owning execution when detection fenced the
        # node — the function wedged and heartbeats kept the sim alive
        # forever.  Ownership-based dispatch recovers it.
        chaos = ChaosConfig(
            zombies=1, zombie_window=(8.0, 9.0), zombie_kill_after_s=45.0
        )
        platform = run_platform(
            seed=43, error_rate=0.15, chaos=chaos, detection=DetectionConfig(),
            backoff=BackoffPolicy(),
        )
        assert platform.sim.pending == 0
        assert platform.summary().completed == 40
        assert platform.detection.stats().detections == 1

    def test_hard_kill_backstop_without_detection(self):
        with_detection = run_platform(
            chaos=self.CHAOS, detection=DetectionConfig()
        ).summary()
        without = run_platform(chaos=self.CHAOS)
        # Nothing fenced the zombie: the backstop killed it on schedule.
        node, onset = self.zombie(without)
        assert node.failed_at == onset + self.CHAOS.zombie_kill_after_s
        summary = without.summary()
        assert summary.completed == 40
        # Without heartbeats the work wedges until the 60 s hard kill (or
        # invocation timeouts): recovery is far slower than detection.
        assert summary.makespan_s > with_detection.makespan_s + 30.0


class TestPartitions:
    def test_short_partition_cordons_then_reinstates(self):
        chaos = ChaosConfig(
            partitions=1,
            partition_window=(8.0, 9.0),
            partition_duration_s=2.0,
        )
        platform = run_platform(
            chaos=chaos,
            detection=DetectionConfig(),
            network=NETWORK_PRESETS["10gbe"],
        )
        stats = platform.detection.stats()
        # 2 s of dropped beats < 4 s confirm timeout: a false-positive
        # cordon/reinstate cycle, not a kill.
        assert stats.heartbeats_dropped > 0
        assert stats.false_suspicions == 1
        assert stats.detections == 0
        assert len(platform.cluster.alive_nodes()) == 16
        assert all(not n.cordoned for n in platform.cluster.nodes)
        # NIC capacities restored when the partition healed.
        nic = [
            link
            for name, link in platform.network.links.items()
            if name.startswith("nic-")
        ]
        assert len({link.bandwidth for link in nic}) == 1
        assert platform.summary().completed == 40


class TestLinkCuts:
    """Partitioned NICs, link brownouts and WAN flaps share one cut path:
    cuts overlapping on one link compose multiplicatively from its
    configured capacity, and the last one to end gives all of it back."""

    @pytest.mark.parametrize(
        "first, second, nested",
        [
            (("link-brownout", 0.1), ("link-brownout", 0.5), False),
            (("link-brownout", 0.1), ("wan-flap", 0.2), False),
            (("wan-flap", 0.2), ("wan-flap", 0.05), False),
            (("wan-flap", 0.2), ("link-brownout", 0.3), True),
        ],
        ids=["brownouts", "brownout-flap", "flaps", "nested"],
    )
    def test_overlapping_cuts_compose_and_restore(
        self, first, second, nested
    ):
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=16, network=NETWORK_PRESETS["edge-wan"]),
            seed=0,
        )
        chaos = ChaosInjector(platform, ChaosConfig())
        sim = platform.sim
        name = platform.network.wan_links[0].name
        link = platform.network.links[name]
        base = link.bandwidth
        (kind1, f1), (kind2, f2) = first, second
        # The first cut spans [1, 5); the second [3, 7), or [2, 4) nested.
        start2, duration2 = (2.0, 2.0) if nested else (3.0, 4.0)
        sim.call_at(
            1.0, lambda: chaos._link_window(kind1, f1, 4.0, "end", name)
        )
        sim.call_at(
            start2,
            lambda: chaos._link_window(kind2, f2, duration2, "end", name),
        )
        sim.run(until=1.5)
        assert link.bandwidth == base * f1
        sim.run(until=3.5)
        assert link.bandwidth == base * f1 * f2
        # One cut ended: the other's factor alone remains.
        sim.run(until=4.5 if nested else 6.0)
        assert link.bandwidth == (base * f1 if nested else base * f2)
        sim.run()
        assert link.bandwidth == base
        assert chaos.degraded_window_s == 4.0 + duration2

    def test_overlapping_flaps_end_at_configured_bandwidth(self):
        kwargs = dict(
            network=NETWORK_PRESETS["edge-wan"],
            chaos=ChaosConfig(
                wan_flaps=6,
                wan_flap_window=(5.0, 25.0),
                wan_flap_duration_s=10.0,
                wan_flap_factor=0.2,
            ),
            detection=DetectionConfig(),
            backoff=BackoffPolicy(),
        )
        # At seed 1 a flap on up-rx:rack-3 ends while a later one on it is
        # still active; restoring the capacity seen at each start used to
        # leave that link at a fifth of its capacity for good.
        tracer = Tracer()
        platform = run_platform(seed=1, tracer=tracer, **kwargs)
        windows = sorted(
            (span.start, span.end, span.attrs["link"])
            for span in tracer.spans()
            if span.kind == "chaos"
        )
        # Some flap ends while a later one on its link is still active.
        assert any(
            a[2] == b[2] and b[0] < a[1] < b[1]
            for i, a in enumerate(windows)
            for b in windows[i + 1:]
        )
        configured = CanaryPlatform(
            ScenarioConfig(num_nodes=16, **kwargs), seed=1
        ).network.links
        for name, link in platform.network.links.items():
            assert link.bandwidth == configured[name].bandwidth, name
        assert platform.summary().completed == 40


class TestOverlappingWindows:
    """Every chaos degradation has the link-cut rule: a target runs at its
    configured value times the factors of its active windows, multiplied
    in start order, and gets exactly its configured value back when its
    last window ends.  Targets: node speed (stragglers), link capacity
    (partitioned NICs, link brownouts, WAN flaps), tier latency and
    refusal (tier brownouts) and a node's heartbeats (partitions)."""

    @staticmethod
    def injector(chaos, network=None):
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=4, network=network), seed=0
        )
        return platform, ChaosInjector(platform, chaos)

    def test_refuse_and_slow_tier_windows_compose(self):
        platform, chaos = self.injector(
            ChaosConfig(
                tier_brownouts=(
                    TierBrownout(
                        tier="kv", start_s=10.0, duration_s=8.0,
                        mode="refuse",
                    ),
                    TierBrownout(
                        tier="kv", start_s=12.0, duration_s=18.0,
                        latency_multiplier=4.0,
                    ),
                )
            )
        )
        tiers = platform.tiers
        kv = tiers.get("kv")
        base = kv.write_time(2**20)
        chaos.schedule()
        # The refuse window keeps its own x4; both together read x16.
        for until, refusing, multiplier in (
            (11.0, True, 4.0),
            (13.0, True, 16.0),
            (19.0, False, 4.0),
        ):
            platform.sim.run(until=until)
            assert tiers.is_refusing("kv") is refusing, until
            assert tiers.write_seconds(kv, 2**20) == base * multiplier
        platform.sim.run()
        assert not tiers.is_refusing("kv")
        assert tiers.write_seconds(kv, 2**20) == base
        assert chaos.degraded_window_s == 26.0

    def test_second_partition_of_a_partitioned_node(self):
        platform, chaos = self.injector(
            ChaosConfig(partition_duration_s=4.0),
            network=NETWORK_PRESETS["10gbe"],
        )
        sim = platform.sim
        node = platform.cluster.nodes[0]
        nics = [
            platform.network.links[f"nic-{way}:{node.node_id}"]
            for way in ("tx", "rx")
        ]
        base = [link.bandwidth for link in nics]
        # Partitions over [1, 5) and [3, 7).
        sim.call_at(1.0, lambda: chaos._start_partition(node))
        sim.call_at(3.0, lambda: chaos._start_partition(node))
        f = PARTITION_CAPACITY_FACTOR
        for until, cuts in ((2.0, 1), (4.0, 2), (6.0, 1)):
            sim.run(until=until)
            assert chaos.heartbeat_blocked(node.node_id), until
            # Configured capacity times the cut factors, left to right.
            expected = base
            for _ in range(cuts):
                expected = [b * f for b in expected]
            assert [link.bandwidth for link in nics] == expected
        sim.run()
        assert not chaos.heartbeat_blocked(node.node_id)
        assert [link.bandwidth for link in nics] == base
        assert chaos.degraded_window_s == 8.0

    def test_window_is_active_until_its_end_event(self):
        platform, chaos = self.injector(ChaosConfig(partition_duration_s=4.0))
        sim = platform.sim
        node = platform.cluster.nodes[0]
        seen = []

        def probe():
            seen.append(chaos.heartbeat_blocked(node.node_id))

        # A beat due at the end time, scheduled before the window opened,
        # fires before the end event; one scheduled after it, after.
        sim.call_at(5.0, probe)
        sim.call_at(1.0, lambda: chaos._start_partition(node))
        sim.call_at(2.0, lambda: sim.call_at(5.0, probe))
        sim.run()
        assert seen == [True, False]

    def test_overlapping_stragglers_restore_exactly(self):
        platform, chaos = self.injector(
            ChaosConfig(straggler_slowdown=0.2, straggler_duration_s=4.0)
        )
        sim = platform.sim
        node = platform.cluster.nodes[0]
        # Stragglers over [1, 5) and [3, 7).
        sim.call_at(1.0, lambda: chaos._start_straggle(node))
        sim.call_at(3.0, lambda: chaos._start_straggle(node))
        for until, factor in ((2.0, 0.2), (4.0, 0.2 * 0.2), (6.0, 0.2)):
            sim.run(until=until)
            assert node.chaos_speed_factor == factor, until
        sim.run()
        assert node.chaos_speed_factor == 1.0

    def test_combined_run_composes_every_target(self):
        """Every archetype drawn to overlap on a 4-node edge-wan cluster:
        stepped through the run, each target reads the composition of
        the windows its traced ``chaos`` instants say are active, and
        all of them end at their configured values."""
        tier_specs = (
            TierBrownout(tier="kv", start_s=6.0, duration_s=8.0,
                         mode="refuse"),
            TierBrownout(tier="kv", start_s=7.0, duration_s=10.0,
                         latency_multiplier=3.0),
        )
        cfg = ChaosConfig(
            stragglers=4, straggler_window=(5.0, 8.0),
            straggler_duration_s=6.0, straggler_slowdown=0.3,
            zombies=1, zombie_window=(5.0, 8.0),
            partitions=4, partition_window=(5.0, 8.0),
            partition_duration_s=4.0,
            link_brownouts=4, link_brownout_window=(5.0, 8.0),
            link_brownout_duration_s=5.0,
            wan_flaps=4, wan_flap_window=(5.0, 8.0),
            wan_flap_duration_s=5.0,
            tier_brownouts=tier_specs,
        )
        tracer = Tracer()
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=4, network=NETWORK_PRESETS["edge-wan"], chaos=cfg,
                detection=DetectionConfig(), backoff=BackoffPolicy(),
            ),
            seed=1,
            tracer=tracer,
        )
        platform.submit_job(
            JobRequest(workload=get_workload("graph-bfs"), num_functions=12)
        )
        links = platform.network.links
        configured = {name: link.bandwidth for name, link in links.items()}
        nodes = [node.node_id for node in platform.cluster.nodes]
        kv = platform.tiers.get("kv")
        base = kv.write_time(2**20)
        factors = {
            "link-brownout": cfg.link_brownout_factor,
            "wan-flap": cfg.wan_flap_factor,
        }

        def check(now):
            # Instants are recorded at window starts, in start order.
            windows = [
                span for span in tracer.spans()
                if span.kind == "chaos" and span.start <= now < span.end
            ]
            speed = dict.fromkeys(nodes, 1.0)
            blocked = set()
            capacity = dict(configured)
            refusing, multiplier = False, 1.0
            for span in windows:
                kind = span.name.split(":")[0]
                if kind == "straggler":
                    speed[span.attrs["node"]] *= cfg.straggler_slowdown
                elif kind == "partition":
                    blocked.add(span.attrs["node"])
                    for way in ("tx", "rx"):
                        capacity[f"nic-{way}:{span.attrs['node']}"] *= (
                            PARTITION_CAPACITY_FACTOR
                        )
                elif kind in factors:
                    capacity[span.attrs["link"]] *= factors[kind]
                elif kind == "tier-brownout":
                    (spec,) = [s for s in tier_specs if s.start_s == span.start]
                    refusing |= spec.mode == "refuse"
                    multiplier *= spec.latency_multiplier
            assert {
                node.node_id: node.chaos_speed_factor
                for node in platform.cluster.nodes
            } == speed, now
            assert {
                n for n in nodes if platform.chaos.heartbeat_blocked(n)
            } == blocked, now
            assert {
                name: link.bandwidth for name, link in links.items()
            } == capacity, now
            assert platform.tiers.is_refusing("kv") is refusing, now
            assert platform.tiers.write_seconds(kv, 2**20) == (
                base * multiplier if multiplier != 1.0 else base
            ), now

        for step in range(80):
            now = 0.25 + 0.5 * step
            platform.run(until=now)
            check(now)
        platform.run()
        check(platform.sim.now)
        assert platform.summary().completed == 12
        # Windows overlapped on one target of every kind.
        spans = [s for s in tracer.spans() if s.kind == "chaos"]
        for kind, attr in (
            ("straggler", "node"), ("partition", "node"),
            ("link-brownout", "link"), ("wan-flap", "link"),
            ("tier-brownout", "tier"),
        ):
            same = [s for s in spans if s.name.startswith(kind + ":")]
            assert any(
                a.attrs[attr] == b.attrs[attr] and b.start < a.end
                for i, a in enumerate(same)
                for b in same[i + 1:]
            ), kind
        for node in platform.cluster.nodes:
            assert node.chaos_speed_factor == 1.0
            assert not platform.chaos.heartbeat_blocked(node.node_id)
        for name, link in links.items():
            assert link.bandwidth == configured[name], name
        for tier in platform.tiers.tiers:
            assert not platform.tiers.is_refusing(tier.name)
            assert platform.tiers.read_seconds(tier, 2**20) == (
                tier.read_time(2**20)
            )


class TestTierBrownouts:
    def test_refusing_tier_spills_writes(self):
        chaos = ChaosConfig(
            tier_brownouts=(
                TierBrownout(
                    tier="kv", start_s=6.0, duration_s=10.0, mode="refuse"
                ),
            )
        )
        # Completed functions drop their chains, so the tiers are read
        # from the checkpoint_write spans of a traced run.
        tracer = Tracer()
        platform = run_platform(chaos=chaos, tracer=tracer)
        spilled = [
            span.start
            for span in tracer.spans()
            if span.kind == "checkpoint_write" and span.attrs["tier"] != "kv"
        ]
        assert spilled
        assert all(6.0 <= t < 16.0 for t in spilled)
        assert chaos_instants(tracer, "tier-brownout:") == ["tier-brownout:kv"]
        assert platform.summary().completed == 40
        # Brownout cleared: the registry accepts kv again.
        assert not platform.tiers.is_refusing("kv")

    def test_slow_mode_inflates_latency(self):
        tiers = TierRegistry()
        tier = tiers.get("pmem")
        base_read = tiers.read_seconds(tier, 2**20)
        base_write = tiers.write_seconds(tier, 2**20)
        tiers.set_brownout("pmem", latency_multiplier=4.0)
        assert tiers.read_seconds(tier, 2**20) == pytest.approx(4 * base_read)
        assert tiers.write_seconds(tier, 2**20) == pytest.approx(
            4 * base_write
        )
        tiers.set_brownout("pmem")
        # Exact (not approx): the healthy path must return the original
        # float expression for byte-identity.
        assert tiers.read_seconds(tier, 2**20) == base_read

    def test_kill_window_is_priced_like_the_fold_plan(self, monkeypatch):
        """Under a slow ``kv`` window a first attempt's planned kill
        window is the segment its fold plan runs: checkpoints priced by
        ``write_charge``, brownout included."""
        seen = []
        fold = FunctionExecution._fold

        def recording_fold(execution, attempt):
            fold(execution, attempt)
            if attempt.index == 0 and attempt.kill_handle is not None:
                plan = attempt.plan
                seen.append((
                    execution.planned_remaining_duration(attempt),
                    plan.finish_at - plan.at,
                    plan.count,
                ))

        monkeypatch.setattr(FunctionExecution, "_fold", recording_fold)
        chaos = ChaosConfig(tier_brownouts=(TierBrownout(
            tier="kv", start_s=0.0, duration_s=1e6, mode="slow",
            latency_multiplier=50.0,
        ),))
        run_platform(seed=0, error_rate=0.15, chaos=chaos)
        assert seen
        for planned, segment, count in seen:
            assert count > 0
            assert planned == pytest.approx(segment, rel=1e-9)

    def test_kill_window_is_priced_like_the_fabric_flows(self, monkeypatch):
        """On ``10gbe`` a slow ``kv`` window lengthens a lone function's
        planned kill window by exactly what it adds to the function's
        run: its checkpoints are uncontended flows whose fixed latency
        alone the window multiplies.  The plan stays no longer than the
        run, so a planned kill lands before the attempt ends."""
        seen = []
        plan_kill = FunctionExecution._plan_injected_kill

        def recording_plan(execution, attempt):
            seen.append((
                execution, execution.platform.sim.now,
                execution.planned_remaining_duration(attempt),
            ))
            plan_kill(execution, attempt)

        monkeypatch.setattr(
            FunctionExecution, "_plan_injected_kill", recording_plan
        )
        slow = ChaosConfig(tier_brownouts=(TierBrownout(
            tier="kv", start_s=0.0, duration_s=1e6, mode="slow",
            latency_multiplier=50.0,
        ),))
        gaps = []
        for chaos in (None, slow):
            seen.clear()
            platform = run_platform(
                seed=0, n=1, chaos=chaos, network=NETWORK_PRESETS["10gbe"],
            )
            [(execution, resumed_at, planned)] = seen
            assert execution.completed
            assert platform.checkpointer.checkpoints_taken > 0
            ran = execution.completed_at - resumed_at
            # The plan prices the tier's hop only: the fabric's per-hop
            # latencies make the run slightly longer.
            assert 0.0 <= ran - planned < 1e-2
            gaps.append(ran - planned)
        healthy, browned = gaps
        assert browned == pytest.approx(healthy, abs=1e-9)

    def test_spill_skips_refusing_tier(self):
        tiers = TierRegistry()
        healthy = tiers.fastest_spill_tier()
        tiers.set_brownout(healthy.name, refuse=True)
        assert tiers.fastest_spill_tier().name != healthy.name
        tiers.set_brownout(healthy.name)
        assert tiers.fastest_spill_tier().name == healthy.name


class TestRestoreBackoff:
    """Restore backoff, read from a traced run: one ``backoff`` instant per
    wait, and a restore that gave up on its checkpoint resumes elsewhere
    than its ``restore`` span says (``abandoned`` when from scratch)."""

    def scenario(self, seed, duration_s=15.0, backoff_policy=BackoffPolicy()):
        chaos = ChaosConfig(
            tier_brownouts=(
                TierBrownout(
                    tier="kv",
                    start_s=15.0,
                    duration_s=duration_s,
                    mode="refuse",
                ),
            )
        )
        tracer = Tracer()
        platform = run_platform(
            seed=seed,
            error_rate=0.25,
            interval=5,
            chaos=chaos,
            backoff=backoff_policy,
            tracer=tracer,
        )
        return platform, tracer

    @staticmethod
    def outcomes(platform, tracer):
        """(backoff waits, restores that fell back, abandoned restores)."""
        spans = tracer.spans()
        attempts = {
            attempt.attempt_id: attempt
            for job in platform.jobs.values()
            for execution in job.executions
            for attempt in execution.attempts
        }
        restores = [span for span in spans if span.kind == "restore"]
        fell_back = sum(
            attempts[span.name.removeprefix("restore:")].from_state
            != span.attrs["from_state"]
            for span in restores
        )
        abandoned = sum(
            span.attrs.get("outcome") == "abandoned" for span in restores
        )
        waits = sum(span.kind == "backoff" for span in spans)
        return waits, fell_back, abandoned

    def test_backoff_recovers_when_brownout_clears(self):
        platform, tracer = self.scenario(seed=1)
        metrics = platform.metrics
        # One victim's restore hit the refused kv tier: the full 6-retry
        # schedule ran, the brownout cleared, and the restore succeeded.
        assert self.outcomes(platform, tracer) == (6, 0, 0)
        assert metrics.backoff_wait_s == pytest.approx(12.36, abs=0.1)
        assert platform.summary().completed == 40
        assert platform.summary().degraded_s >= metrics.backoff_wait_s

    def test_exhausted_backoff_falls_back(self, monkeypatch):
        monkeypatch.setattr(backoff, "MAX_ATTEMPTS", 2)
        platform, tracer = self.scenario(seed=3, duration_s=30.0)
        # Three restores exhausted their 2 retries against the long
        # brownout; no older healthy-tier checkpoint exists, so each
        # degraded to a from-scratch restart — and the job still finished.
        assert self.outcomes(platform, tracer) == (6, 3, 3)
        assert platform.summary().completed == 40

    def test_no_backoff_without_policy(self):
        platform, tracer = self.scenario(seed=1, backoff_policy=None)
        # Legacy path: restores proceed immediately (the latency hit is
        # modeled in the tier), nothing waits.
        assert self.outcomes(platform, tracer)[0] == 0
        assert platform.metrics.backoff_wait_s == 0.0
        assert platform.summary().completed == 40


class TestPlacementBackoff:
    def test_saturated_node_polls_on_schedule(self):
        platform = CanaryPlatform(
            ScenarioConfig(
                num_nodes=1,
                strategy="retry",
                backoff=BackoffPolicy(),
            ),
            seed=0,
        )
        platform.submit_job(
            JobRequest(
                workload=get_workload("micro-python"), num_functions=60
            )
        )
        platform.run()
        controller = platform.controller
        # 48 slots -> 12 requests queue; each re-drives on the full
        # 6-attempt schedule while the node stays saturated: 12 x 6.
        assert controller.backoff_retries == 72
        assert platform.summary().completed == 60

    def test_no_timers_without_backoff(self):
        platform = CanaryPlatform(
            ScenarioConfig(num_nodes=1, strategy="retry"),
            seed=0,
        )
        platform.submit_job(
            JobRequest(
                workload=get_workload("micro-python"), num_functions=60
            )
        )
        platform.run()
        assert platform.controller.backoff_retries == 0
        assert platform.summary().completed == 60
