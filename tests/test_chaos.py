"""Gray-failure chaos layer: archetypes, degradation paths, determinism.

Two invariants anchor everything here: chaos *disabled* is byte-identical
to the pre-chaos platform (golden pins unchanged), and chaos *enabled* is a
pure function of the experiment seed.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.canary import CanaryPlatform
from repro.core.jobs import JobRequest
from repro.core.scenario import ScenarioConfig
from repro.detection import BackoffPolicy, DetectionConfig, backoff
from repro.faults.chaos import (
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
        tiers.clear_brownout("pmem")
        # Exact (not approx): the healthy path must return the original
        # float expression for byte-identity.
        assert tiers.read_seconds(tier, 2**20) == base_read

    def test_spill_skips_refusing_tier(self):
        tiers = TierRegistry()
        healthy = tiers.fastest_spill_tier()
        tiers.set_brownout(healthy.name, refuse=True)
        assert tiers.fastest_spill_tier().name != healthy.name
        tiers.clear_brownout(healthy.name)
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
