"""The six end-to-end ladder scenarios.

Each rung stresses a different layer of the simulator; the reasons are in
``BENCHMARK.json`` and README.md.  Scenarios are plain ``ScenarioConfig``
values, so the benchmark drives the program only through the public
``run_scenario`` / ``run_traffic`` / ``run_traced`` entry points.
"""

from __future__ import annotations

from repro.adaptive import AdaptiveConfig
from repro.autoscale import AdmissionConfig, AutoscaleConfig
from repro.detection import BackoffPolicy, DetectionConfig
from repro.experiments.config import ScenarioConfig
from repro.faults.chaos import ChaosConfig
from repro.network.config import get_network_preset
from repro.sla.policy import SLAPolicy
from repro.strategies.cloning import CloningConfig
from repro.traffic import PoissonArrivals, Tenant, TrafficConfig

SLA = SLAPolicy(deadline_s=30.0)


def _poisson(name: str, workload: str, rate: float) -> Tenant:
    return Tenant(
        name=name,
        arrivals=PoissonArrivals(rate_per_s=rate),
        workloads=(workload,),
        sla=SLA,
    )


def batch_local() -> ScenarioConfig:
    # 8 jobs of 500: one 4000-function job would exceed the account's
    # concurrent-invocation cap and queue forever (see README).
    return ScenarioConfig(
        workload="graph-bfs", strategy="canary", error_rate=0.15,
        num_functions=4000, jobs=8, num_nodes=16,
    )


def batch_fabric() -> ScenarioConfig:
    return ScenarioConfig(
        workload="graph-bfs", strategy="canary", error_rate=0.15,
        num_functions=400, jobs=8, num_nodes=16,
        network=get_network_preset("10gbe"),
    )


def clone_fabric() -> ScenarioConfig:
    return ScenarioConfig(
        workload="graph-bfs", strategy="cloning", error_rate=0.15,
        num_functions=800, num_nodes=16,
        network=get_network_preset("10gbe"),
        cloning=CloningConfig(clones=2),
    )


def gray_failures() -> ScenarioConfig:
    return ScenarioConfig(
        workload="graph-bfs", strategy="canary", error_rate=0.15,
        num_functions=2000, jobs=2, num_nodes=16,
        node_failure_count=2,
        chaos=ChaosConfig(
            stragglers=2, straggler_window=(5.0, 40.0),
            straggler_duration_s=15.0, straggler_slowdown=0.25,
            zombies=1, zombie_window=(10.0, 12.0), zombie_kill_after_s=25.0,
            partitions=1, partition_window=(20.0, 22.0),
            partition_duration_s=6.0,
        ),
        detection=DetectionConfig(),
        backoff=BackoffPolicy(),
    )


def open_loop() -> ScenarioConfig:
    return ScenarioConfig(
        workload="micro-python", strategy="canary", error_rate=0.05,
        num_nodes=16,
        traffic=TrafficConfig(
            tenants=(
                _poisson("py", "micro-python", 3.0),
                _poisson("web", "web-service", 3.0),
            ),
            duration_s=400.0,
            admission=AdmissionConfig(queue_shed_depth=64),
        ),
        autoscale=AutoscaleConfig(min_nodes=8, max_nodes=24),
    )


def edge_adaptive() -> ScenarioConfig:
    return ScenarioConfig(
        workload="micro-python", strategy="canary", error_rate=0.05,
        num_nodes=16,
        network=get_network_preset("edge-wan"),
        chaos=ChaosConfig(
            wan_flaps=6, wan_flap_window=(30.0, 700.0),
            wan_flap_duration_s=10.0, wan_flap_factor=0.2,
        ),
        detection=DetectionConfig(),
        backoff=BackoffPolicy(),
        traffic=TrafficConfig(
            tenants=(_poisson("edge", "micro-python", 1.5),),
            duration_s=800.0,
        ),
        adaptive=AdaptiveConfig(),
    )


#: Ladder order (W1..W6); reps run round-robin in this order.
WORKLOADS = {
    "batch-local": batch_local,
    "batch-fabric": batch_fabric,
    "clone-fabric": clone_fabric,
    "gray-failures": gray_failures,
    "open-loop": open_loop,
    "edge-adaptive": edge_adaptive,
}
