"""Run summaries: the numbers each benchmark table row is built from."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunSummary:
    """Aggregated result of one simulated run (one seed)."""

    strategy: str
    workload: str
    error_rate: float
    num_functions: int
    num_nodes: int
    makespan_s: float
    total_recovery_s: float
    mean_recovery_s: float
    failures: int
    unrecovered: int
    completed: int
    cost_total: float
    cost_function: float
    cost_replica: float
    cost_standby: float
    checkpoints_taken: int
    checkpoint_time_s: float
    replicas_launched: int
    seed: int
    # Fabric traffic (zeros when the network model is disabled, so legacy
    # summaries stay byte-identical).
    network_flows: int = 0
    network_bytes: float = 0.0
    network_contention_s: float = 0.0
    network_peak_utilization: float = 0.0
    # Gray-failure layer (zeros when detection/chaos/backoff are disabled,
    # so legacy summaries stay byte-identical).
    detections: int = 0
    detection_latency_mean_s: float = 0.0
    false_suspicions: int = 0
    degraded_s: float = 0.0
    # Open-loop traffic layer (zeros when ``traffic`` is disabled, so
    # legacy summaries stay byte-identical).
    invocations_offered: int = 0
    invocations_shed: int = 0
    slo_violations: int = 0
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0
    latency_p999_s: float = 0.0
    # Autoscaler (zeros when ``autoscale`` is disabled).
    scale_outs: int = 0
    scale_ins: int = 0
    nodes_peak: int = 0
    # S40 adaptive controller (zeros when ``adaptive`` is disabled).
    adaptive_epochs: int = 0
    adaptive_interval_changes: int = 0
    adaptive_boost_changes: int = 0
    adaptive_hint_changes: int = 0

    @property
    def all_completed(self) -> bool:
        return self.completed == self.num_functions
