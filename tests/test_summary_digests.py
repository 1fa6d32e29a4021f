"""Exact summary digests for small feature combinations.

The golden pins in ``test_golden_regression.py`` tolerate calibration
noise with ``pytest.approx``; these pin the whole ``RunSummary`` byte for
byte.  Each case is the sha256 of ``json.dumps(asdict(summary),
sort_keys=True)`` at a fixed seed, so a deletion or refactor that claims
"outputs unchanged" is checked exactly, not within a band.  Each case also
runs twice in one process and must repeat itself exactly, per-tenant rows
and autoscaler events included: this is the repeat-run check for every
feature the cases switch on.  ``baseline-canary`` sets no feature, so its
pin holds the off-by-default property.

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
from repro.experiments.runner import run_scenario, run_traffic
from repro.faults.chaos import ChaosConfig, default_chaos_preset
from repro.network.config import NETWORK_PRESETS
from repro.sla.policy import SLAPolicy
from repro.strategies.cloning import CloningConfig
from repro.traffic import OnOffArrivals, PoissonArrivals, Tenant, TrafficConfig
from tests.test_adaptive import _chaotic_scenario as adaptive_chaos
from tests.test_autoscale import _ramp_scenario as autoscale_ramp

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
    # The next five cover paths and tuning constants the cases above never
    # reach: the SLA slack margins, the detector under a launch ramp (24
    # cold starts on 3 nodes), the autoscaler's utilisation/queue
    # thresholds, and the adaptive controller's risk, suspicion-hint,
    # SLO-slack and pressure thresholds.
    "canary-sla-traffic": BASE.with_(
        workload="micro-python",
        strategy="canary-sla",
        error_rate=0.25,
        num_nodes=4,
        traffic=TrafficConfig(
            tenants=(
                Tenant(
                    name="tenant-00",
                    arrivals=PoissonArrivals(rate_per_s=3.0),
                    workloads=("micro-python",),
                    sla=SLAPolicy(deadline_s=30.0),
                ),
            ),
            duration_s=20.0,
        ),
    ),
    "launch-ramp": ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.0,
        num_functions=24,
        num_nodes=3,
        detection=DetectionConfig(),
    ),
    "autoscale-ramp-10gbe": autoscale_ramp(duration=60.0).with_(
        network=NETWORK_PRESETS["10gbe"]
    ),
    "adaptive-chaos": adaptive_chaos(),
    "adaptive-sla-edge": BASE.with_(
        workload="micro-python",
        error_rate=0.1,
        network=NETWORK_PRESETS["edge-wan"],
        chaos=ChaosConfig(
            wan_flaps=2,
            wan_flap_window=(5.0, 25.0),
            wan_flap_duration_s=10.0,
            wan_flap_factor=0.2,
        ),
        detection=DetectionConfig(),
        backoff=BackoffPolicy(),
        traffic=TrafficConfig(
            tenants=(
                Tenant(
                    name="edge",
                    arrivals=PoissonArrivals(rate_per_s=2.0),
                    workloads=("micro-python",),
                    sla=SLAPolicy(deadline_s=90.0),
                ),
            ),
            duration_s=30.0,
        ),
        adaptive=AdaptiveConfig(),
    ),
    # The next five each reach one path or constant the cases above never
    # move: the wedged invoker's cold-start backlog under least-loaded
    # placement, the SLA CRITICAL margin with the replica pool exhausted,
    # the autoscaler's drain poll with scale-out blocked at max_nodes, the
    # partition's NIC capacity factor, and the detector under a launch
    # storm (96 cold starts on 3 nodes).
    "least-loaded-zombie": BASE.with_(
        num_functions=60,
        num_nodes=4,
        placement="least-loaded",
        chaos=ChaosConfig(
            zombies=1, zombie_window=(2.0, 6.0), zombie_kill_after_s=30.0
        ),
    ),
    "sla-pool-exhausted": BASE.with_(
        workload="micro-python",
        strategy="canary-sla",
        error_rate=0.5,
        num_nodes=4,
        traffic=TrafficConfig(
            tenants=(
                Tenant(
                    name="tenant-00",
                    arrivals=PoissonArrivals(rate_per_s=3.0),
                    workloads=("micro-python",),
                    sla=SLAPolicy(deadline_s=30.0),
                ),
            ),
            duration_s=20.0,
        ),
    ),
    "autoscale-drain-at-max": BASE.with_(
        workload="micro-python",
        error_rate=0.0,
        num_nodes=3,
        traffic=TrafficConfig(
            tenants=(
                Tenant(
                    name="burst",
                    arrivals=OnOffArrivals(
                        on_rate_per_s=12.0, mean_on_s=3.0, mean_off_s=6.0
                    ),
                    workloads=("micro-python",),
                ),
            ),
            duration_s=60.0,
        ),
        autoscale=AutoscaleConfig(
            min_nodes=2, max_nodes=3, cooldown_in_s=5.0, cooldown_out_s=2.0
        ),
    ),
    "partition-10gbe": BASE.with_(
        num_functions=20,
        network=NETWORK_PRESETS["10gbe"],
        chaos=ChaosConfig(
            partitions=3, partition_window=(3.0, 15.0), partition_duration_s=4.0
        ),
    ),
    "launch-storm": ScenarioConfig(
        workload="micro-python",
        strategy="canary",
        error_rate=0.0,
        num_functions=96,
        num_nodes=3,
        detection=DetectionConfig(),
    ),
}

#: Each non-default placement policy on a batch and on open-loop traffic
#: past a zombie with the detector on (per-tenant rows compared too).
#: ``contention-adaptive`` and ``least-loaded-zombie`` are the batch
#: cases of the other two.  The contention cells run on 10gbe.
POLICY_BATCH = BASE.with_(num_functions=40)
ZOMBIE_TRAFFIC = POLICY_BATCH.with_(
    workload="micro-python",
    error_rate=0.05,
    chaos=ChaosConfig(zombies=1, zombie_window=(6.0, 7.0), zombie_kill_after_s=25.0),
    detection=DetectionConfig(),
    backoff=BackoffPolicy(),
    traffic=TrafficConfig(
        tenants=(
            Tenant(
                name="load",
                arrivals=PoissonArrivals(rate_per_s=3.0),
                workloads=("micro-python",),
            ),
        ),
        duration_s=20.0,
    ),
)
for _placement in ("round-robin", "cost", "suspicion"):
    CASES[f"{_placement}-batch"] = POLICY_BATCH.with_(placement=_placement)
for _placement in ("round-robin", "least-loaded", "cost", "suspicion"):
    CASES[f"{_placement}-zombie-traffic"] = ZOMBIE_TRAFFIC.with_(placement=_placement)
CASES["contention-zombie-traffic"] = ZOMBIE_TRAFFIC.with_(
    placement="contention", network=NETWORK_PRESETS["10gbe"]
)

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
        "c93d01a94d1bfe71052d17047a74f855"
        "52cd4dc3d82516e956538351629afa2c"
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
        "19cc9ac04680cd045daf783be2683e6d"
        "301dbc3a9e34e23186e0c9d5c7b235f1"
    ),
    "cloning-3": (
        "5b2f7a3fa81cf5b222c6b074b49356d8"
        "80bf5b101204daf40893e7c6d81cf638"
    ),
    "canary-sla-traffic": (
        "05a977c0fd9b2360b826d873b50d60d8"
        "8431c5c8a181c8f14dfa52c76707c1cc"
    ),
    "launch-ramp": (
        "c5d915739fcfd682b5c533fda481d980"
        "04dcf4adc425bc9ac65a988044abba30"
    ),
    "autoscale-ramp-10gbe": (
        "5645f988d444353f3ca06992b64e2cb8"
        "8f2ba6bfc92b740964953e4436c2f84c"
    ),
    "adaptive-chaos": (
        "8be6e006c40a6da2b8c6a72bd8c1b239"
        "6512d2993c8ef9630fca0a88b26e4dcd"
    ),
    "adaptive-sla-edge": (
        "1fed4225325f1c5268195c0d860e3ee3"
        "750b204c32dc2a36cf7498a9c6a35cfd"
    ),
    "least-loaded-zombie": (
        "cc66f87ae16e5ade5388bcb85de66095"
        "c77e207de5c48bcea3e492eccc5e0708"
    ),
    "sla-pool-exhausted": (
        "e692e05b126e050b20d764fda7b2ada2"
        "5550c78c7dfdc845866f69a993609e8f"
    ),
    "autoscale-drain-at-max": (
        "343a36ba89db67ecbec5bfca7994df40"
        "ce627ad32e6ca92086c0f6b5e2a51fbd"
    ),
    "partition-10gbe": (
        "75521d09afcb889299ebf44fdf8363d5"
        "aa6731d8855f1e6fcf1cd2abc3d90076"
    ),
    "launch-storm": (
        "2f7a6ebaef75183145b656989c954c84"
        "1e741a2479b02807a522129453b8e26f"
    ),
    "round-robin-batch": (
        "0b05de33e7a0fa4b72338668b126af52"
        "75075fe3c3156f7a400c74f6e24557fd"
    ),
    "cost-batch": (
        "db094cb625bfb41bbc6fdc3b45c8ef54"
        "762683c0c260758505087771863af2c9"
    ),
    "suspicion-batch": (
        "c5b21c2f241d9ce48a7c804954be12ec"
        "ce3be583167f379bda14e1f31ad91d5c"
    ),
    "round-robin-zombie-traffic": (
        "c01d926a8c6d5ed30bceffb2b7e2ef7c"
        "0f8817a12ca3a37610af99bfb0f0d6ed"
    ),
    "least-loaded-zombie-traffic": (
        "64998b4d65f7af1a47cbf1cf5d6efb10"
        "8b7b2e0e204599aef20621e0b0662ff6"
    ),
    "cost-zombie-traffic": (
        "028bb3065e858f58071a9f27b79f606f"
        "50fef3a018df18927808f06ada177a93"
    ),
    "suspicion-zombie-traffic": (
        "006dede005353db6af474435e1c62c3e"
        "c5ab984aba1038b3a50f7a654cfd965a"
    ),
    "contention-zombie-traffic": (
        "b05ad5c0d90d0132f02e43545a35d399"
        "fbe3a4aa27a5eca5551079ef65f8dbff"
    ),
}


def run_case(scenario: ScenarioConfig, seed: int = 0) -> tuple:
    """The summary, plus per-tenant rows and autoscaler events of a traffic
    run."""
    if scenario.traffic is None:
        return run_scenario(scenario, seed=seed), None, None
    result = run_traffic(scenario, seed=seed)
    return result.summary, result.tenants, result.scale_events


def summary_digest(summary) -> str:
    blob = json.dumps(asdict(summary), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_summary_digest_pinned(name):
    summary, *rest = run_case(CASES[name])
    assert summary_digest(summary) == PINS[name]
    again, *rest_again = run_case(CASES[name])
    assert asdict(again) == asdict(summary)
    assert rest_again == rest


def test_baseline_case_leaves_features_off():
    base = CASES["baseline-canary"]
    assert base.placement == "locality"
    assert base.adaptive is None and base.cloning is None
    assert base.traffic is None and base.autoscale is None
    assert base.chaos is None and base.network is None
