"""S40 adaptive fault tolerance: controller behaviour and the edge-WAN preset.

Three concerns live here:

* The per-epoch feedback controller actually moves the checkpoint/
  replication/placement knobs under stress — and leaves them alone on a
  calm run (hysteresis means no thrash).
* The edge-WAN preset builds WAN links, and the wan_flap archetype cuts
  and restores them (or is skipped when there are none).
* ``adaptive=None`` keeps the summary's adaptive counters at zero.
  Repeat-run identity is the ``adaptive-chaos`` case of
  ``tests/test_summary_digests.py``.
"""

from repro.adaptive import AdaptiveConfig
from repro.detection import BackoffPolicy, DetectionConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import _run_platform, run_scenario
from repro.faults.chaos import ChaosConfig, default_chaos_preset
from repro.network.config import NETWORK_PRESETS
from repro.trace.tracer import Tracer


def _chaotic_scenario(**overrides):
    base = dict(
        workload="dl-training",
        strategy="canary",
        error_rate=0.25,
        num_functions=40,
        num_nodes=8,
        network=NETWORK_PRESETS["10gbe"],
        chaos=default_chaos_preset(),
        detection=DetectionConfig(),
        backoff=BackoffPolicy(),
        adaptive=AdaptiveConfig(),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_controller_engages_under_failures():
    summary = run_scenario(_chaotic_scenario(), seed=3)
    assert summary.completed == 40
    assert summary.adaptive_epochs > 0
    # Failures + chaos must push the controller out of its initial stance
    # at least once (protect on the burst, relax when it drains).
    assert summary.adaptive_interval_changes >= 1


def test_controller_quiet_on_calm_run():
    scenario = ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.0,
        num_functions=20,
        num_nodes=8,
        adaptive=AdaptiveConfig(),
    )
    summary = run_scenario(scenario, seed=1)
    assert summary.completed == 20
    assert summary.adaptive_epochs > 0
    # Zero risk: at most the single initial relax, and never a protect
    # boost or a placement hint — hysteresis forbids oscillation.
    assert summary.adaptive_interval_changes <= 1
    assert summary.adaptive_boost_changes == 0
    assert summary.adaptive_hint_changes == 0


def test_adaptive_off_keeps_counters_zero():
    summary = run_scenario(_chaotic_scenario(adaptive=None), seed=3)
    assert summary.adaptive_epochs == 0
    assert summary.adaptive_interval_changes == 0
    assert summary.adaptive_boost_changes == 0
    assert summary.adaptive_hint_changes == 0


# ----------------------------------------------------------------------
# Edge-WAN preset and the wan_flap chaos archetype
# ----------------------------------------------------------------------
def test_edge_wan_preset_creates_wan_links():
    scenario = ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        num_functions=4,
        num_nodes=16,
        network=NETWORK_PRESETS["edge-wan"],
    )
    platform = _run_platform(scenario, seed=0)
    names = sorted(link.name for link in platform.network.wan_links)
    assert names == [
        "up-rx:rack-2", "up-rx:rack-3", "up-tx:rack-2", "up-tx:rack-3",
    ]


def _wan_flaps(tracer) -> int:
    """WAN flaps a traced run applied: each emits one ``chaos`` instant."""
    return sum(
        span.kind == "chaos" and span.name.startswith("wan-flap:")
        for span in tracer.spans()
    )


def test_wan_flap_applies_and_restores():
    scenario = ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        num_functions=16,
        num_nodes=16,
        network=NETWORK_PRESETS["edge-wan"],
        chaos=ChaosConfig(wan_flaps=2),
        detection=DetectionConfig(),
        backoff=BackoffPolicy(),
    )
    tracer = Tracer()
    platform = _run_platform(scenario, seed=1, tracer=tracer)
    assert _wan_flaps(tracer) == 2
    # Capacity restored once the flap windows closed.
    expected = NETWORK_PRESETS["edge-wan"].wan_uplink_bandwidth
    for link in platform.network.wan_links:
        assert link.bandwidth == expected
    assert platform.summary().degraded_s >= 2 * 4.0


def test_wan_flap_skips_without_wan_links():
    scenario = ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        num_functions=4,
        num_nodes=8,
        network=NETWORK_PRESETS["10gbe"],
        chaos=ChaosConfig(wan_flaps=3),
        detection=DetectionConfig(),
        backoff=BackoffPolicy(),
    )
    tracer = Tracer()
    _run_platform(scenario, seed=0, tracer=tracer)
    assert _wan_flaps(tracer) == 0
