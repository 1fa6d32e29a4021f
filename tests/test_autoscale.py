"""Autoscaler properties: bounds, cooldowns, drains.

Repeat-run identity is the ``autoscale-ramp-10gbe`` case of
``tests/test_summary_digests.py``.
"""

import pytest

from repro.autoscale import AutoscaleConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_traffic
from repro.sla.policy import SLAPolicy
from repro.traffic import OnOffArrivals, PoissonArrivals, Tenant, TrafficConfig

RAMP_AUTOSCALE = AutoscaleConfig(
    min_nodes=2,
    max_nodes=8,
    cooldown_out_s=2.0,
    cooldown_in_s=8.0,
    boot_delay_s=1.0,
)


def _ramp_scenario(autoscale=RAMP_AUTOSCALE, duration=90.0):
    """A burst tenant that forces a ramp up and then lets it drain."""
    tenants = (
        Tenant(
            name="burst",
            arrivals=OnOffArrivals(
                on_rate_per_s=8.0,
                mean_on_s=15.0,
                mean_off_s=40.0,
            ),
            workloads=("micro-python",),
            sla=SLAPolicy(deadline_s=30.0),
        ),
    )
    return ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.0,
        num_nodes=2,
        traffic=TrafficConfig(tenants=tenants, duration_s=duration),
        autoscale=autoscale,
    )


@pytest.fixture(scope="module")
def ramp():
    # One shared run: the property tests below all read the same record.
    return run_traffic(_ramp_scenario(), seed=0)


def _provisioned_timeline(result, config, initial):
    """Reconstruct the provisioned-node count after each scale event."""
    count = initial
    timeline = [count]
    for _, direction, _ in result.scale_events:
        count += 1 if direction == "out" else -1
        timeline.append(count)
    return timeline


def test_ramp_scales_out_and_back_in(ramp):
    directions = [d for _, d, _ in ramp.scale_events]
    assert "out" in directions
    assert "in" in directions
    assert ramp.summary.scale_outs == directions.count("out")
    assert ramp.summary.scale_ins == directions.count("in")


def test_never_below_min_or_above_max(ramp):
    config = RAMP_AUTOSCALE
    timeline = _provisioned_timeline(ramp, config, initial=2)
    assert min(timeline) >= config.min_nodes
    assert max(timeline) <= config.max_nodes
    assert ramp.summary.nodes_peak == max(timeline)
    assert ramp.summary.nodes_peak > config.min_nodes


def test_scale_out_cooldown_respected(ramp):
    """Join events are at least cooldown apart (join = decision + boot,
    and boot delay is constant, so the spacing carries through)."""
    outs = [t for t, d, _ in ramp.scale_events if d == "out"]
    for earlier, later in zip(outs, outs[1:]):
        assert later - earlier >= RAMP_AUTOSCALE.cooldown_out_s - 1e-9


def test_scale_in_cooldown_respected(ramp):
    """Drain *decisions* are cooldown apart; retirement adds a variable
    drain, so compare decision-to-decision via the drain set ordering:
    retire times are ordered like their decisions, and each decision is
    >= the previous one + cooldown, so consecutive retires of distinct
    decisions can violate the bound only by less than one drain span.
    The conservative check: no two retires within half the cooldown."""
    ins = [t for t, d, _ in ramp.scale_events if d == "in"]
    for earlier, later in zip(ins, ins[1:]):
        assert later - earlier >= RAMP_AUTOSCALE.cooldown_in_s / 2


def test_events_are_time_ordered(ramp):
    times = [t for t, _, _ in ramp.scale_events]
    assert times == sorted(times)


def test_drain_completed_before_retirement():
    """After the run, every deprovisioned node carries no containers."""
    from repro.experiments.runner import _run_platform

    platform = _run_platform(_ramp_scenario(), seed=0)
    for node in platform.cluster.nodes:
        if not node.provisioned:
            assert not node.containers, node.node_id
            assert not node.cordoned
    # The provisioned count settled inside the configured band.
    provisioned = sum(1 for n in platform.cluster.nodes if n.provisioned)
    assert RAMP_AUTOSCALE.min_nodes <= provisioned <= RAMP_AUTOSCALE.max_nodes


def test_steady_light_load_never_scales():
    """A trickle on an amply provisioned cluster triggers no events."""
    tenants = (
        Tenant(
            name="trickle",
            arrivals=PoissonArrivals(rate_per_s=0.2),
            workloads=("micro-python",),
        ),
    )
    scenario = ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.0,
        num_nodes=4,
        traffic=TrafficConfig(tenants=tenants, duration_s=40.0),
        autoscale=AutoscaleConfig(min_nodes=4, max_nodes=8),
    )
    result = run_traffic(scenario, seed=0)
    assert [d for _, d, _ in result.scale_events if d == "out"] == []
    assert result.summary.nodes_peak == 4


def test_autoscale_config_validation():
    with pytest.raises(ValueError):
        AutoscaleConfig(min_nodes=0)
    with pytest.raises(ValueError):
        AutoscaleConfig(min_nodes=8, max_nodes=4)
