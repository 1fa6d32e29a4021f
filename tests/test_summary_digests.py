"""Exact summary digests for small feature combinations.

The golden pins in ``test_golden_regression.py`` tolerate calibration
noise with ``pytest.approx``; these pin the whole ``RunSummary`` byte for
byte.  Each case is the sha256 of ``json.dumps(asdict(summary),
sort_keys=True)`` at a fixed seed, so a deletion or refactor that claims
"outputs unchanged" is checked exactly, not within a band.

If a change is meant to move a number, recompute the pin and say why in
CHANGES.md.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.adaptive import AdaptiveConfig
from repro.autoscale import AdmissionConfig, AutoscaleConfig
from repro.detection import BackoffPolicy, DetectionConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.faults.chaos import default_chaos_preset
from repro.network.config import NETWORK_PRESETS
from repro.strategies.cloning import CloningConfig
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig

BASE = ScenarioConfig(
    workload="graph-bfs",
    strategy="canary",
    error_rate=0.15,
    num_functions=30,
    num_nodes=8,
)

CASES = {
    "baseline-canary": BASE,
    "retry": BASE.with_(strategy="retry"),
    "10gbe-node-failure": BASE.with_(
        num_functions=20,
        network=NETWORK_PRESETS["10gbe"],
        node_failure_count=1,
    ),
    "chaos-detection-backoff": BASE.with_(
        num_functions=20,
        chaos=default_chaos_preset(),
        detection=DetectionConfig(),
        backoff=BackoffPolicy(),
    ),
    "traffic-autoscale-admission": BASE.with_(
        workload="micro-python",
        error_rate=0.0,
        num_nodes=4,
        traffic=TrafficConfig(
            tenants=tuple(
                Tenant(
                    name=f"tenant-{index:02d}",
                    arrivals=PoissonArrivals(rate_per_s=4.0),
                    workloads=("micro-python",),
                )
                for index in range(2)
            ),
            duration_s=20.0,
            admission=AdmissionConfig(
                tenant_rate_per_s=3.0, queue_shed_depth=16
            ),
        ),
        autoscale=AutoscaleConfig(min_nodes=2, max_nodes=6),
    ),
    "contention-adaptive": BASE.with_(
        num_functions=20,
        network=NETWORK_PRESETS["10gbe"],
        placement="contention",
        adaptive=AdaptiveConfig(),
    ),
    "cloning-3": BASE.with_(
        strategy="cloning", cloning=CloningConfig(clones=3)
    ),
}

PINS = {
    "baseline-canary": (
        "aad399d79cc5adaa404da904ded0164e"
        "102ecf1a2a37cf9160dffe982811a83d"
    ),
    "retry": (
        "ecb892ec2d52f990ec9d0387ec18c8e9"
        "b393391e4c4284950d289ef646c6a43e"
    ),
    "10gbe-node-failure": (
        "50933b8a37cad80749235322fbd2aa7c"
        "cabb109ad56680f47d21e2d1887b1824"
    ),
    "chaos-detection-backoff": (
        "ac6000183929c7cf9396363f8942527e"
        "0402674b19365384d2a2d7c8a32d8b69"
    ),
    "traffic-autoscale-admission": (
        "ba2165a9b44ef7e9412666aaa6de0787"
        "f710ed63dee7ccfb85cc1d1081dff332"
    ),
    "contention-adaptive": (
        "392ba7e9d8cdee433651198e5c1bdcdb"
        "33445861d30543b6aed78cd4e4478c81"
    ),
    "cloning-3": (
        "5b2f7a3fa81cf5b222c6b074b49356d8"
        "80bf5b101204daf40893e7c6d81cf638"
    ),
}


def summary_digest(scenario: ScenarioConfig, seed: int = 0) -> str:
    summary = run_scenario(scenario, seed=seed)
    blob = json.dumps(asdict(summary), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_summary_digest_pinned(name):
    assert summary_digest(CASES[name]) == PINS[name]
