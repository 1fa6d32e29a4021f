"""One benchmark rep: run one ladder workload once in this fresh process.

Usage: ``python3 child.py <workload> <seed> <traced 0|1>``.  Prints one
JSON object on its last stdout line.  ``bench.py`` launches these one at a
time; a fresh process per rep keeps heap state identical between reps and
makes ``ru_maxrss`` a clean per-workload peak.
"""

import gc
import hashlib
import heapq
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


class _Event:
    __slots__ = ("time", "callback", "label")

    def __init__(self, when, callback, label):
        self.time, self.callback, self.label = when, callback, label


def _reference_loop(events: int = 40_000) -> float:
    start = time.perf_counter()
    heap: list = []
    counts: dict[str, int] = {}
    for i in range(events):
        event = _Event((i * 7919) % 1000 + i, lambda: None, f"x:{i % 97}")
        heapq.heappush(heap, ((event.time, i), event))
        counts[event.label] = counts.get(event.label, 0) + 1
        if len(heap) > 500:
            heapq.heappop(heap)[1].callback()
    return time.perf_counter() - start


def reference_s() -> float:
    """Seconds a fixed stdlib-only event loop takes on this machine now.

    The loop does what the simulator does most (heap pushes and pops of
    small slotted objects, dict counters, closures, f-string labels) but
    runs no program code, and the collector is off while it runs (its
    objects are acyclic) so the program's heap cannot slow it either.
    Host times divided by it cancel most of a shared machine's speed
    drift.  The best of three runs drops momentary interference.
    """
    gc.disable()
    try:
        return min(_reference_loop() for _ in range(3))
    finally:
        gc.enable()


def _checks(platform, summary, offered: int) -> list[str]:
    """Conservation and leak-freedom through public handles."""
    failed = []
    done = summary.completed + summary.unrecovered + summary.invocations_shed
    if done != offered:
        failed.append(
            f"conservation: completed {summary.completed} + unrecovered "
            f"{summary.unrecovered} + shed {summary.invocations_shed} "
            f"!= offered {offered}"
        )
    network = platform.network
    if network is not None and network.active_flow_count:
        failed.append(f"leak: {network.active_flow_count} active flows")
    if platform.kv.used_bytes:
        failed.append(f"leak: {platform.kv.used_bytes} KV bytes")
    if platform.sim.pending:
        failed.append(f"leak: {platform.sim.pending} pending events")
    live = sum(1 for c in platform.controller.all_containers() if not c.terminal)
    if live:
        failed.append(f"leak: {live} non-terminal containers")
    return failed


def _layer_metrics(platform, summary, traced_run, times) -> dict[str, float]:
    """Per-layer counters of the traced run, keyed by metric name."""
    from repro.metrics.network import collect_network_stats
    from repro.trace.stats import aggregate_spans

    kinds = aggregate_spans(traced_run.spans)
    engine = traced_run.engine
    counts = times["counts"]

    def kind(name: str, field: str) -> float:
        stats = kinds.get(name)
        return getattr(stats, field) if stats is not None else 0.0

    def count(name: str) -> int:
        return counts.get(name, 0)

    net = collect_network_stats(platform.network, platform.sim.now)
    flows = net.flows_completed if net is not None else 0
    wakeups = count("flow-end") + count("xfer")
    submits = count("FaaSController.submit")
    redrives = count("place-backoff")
    out: dict[str, float] = {}
    for layer, row in times["layers"].items():
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.share"] = row["share"]
        out[f"{layer}.calls"] = row["calls"]
    out.update({
        "sim.events_fired": engine.events_processed,
        "sim.events_scheduled": engine.pushes,
        "sim.cancel_ratio": engine.cancelled_total / engine.pushes,
        "sim.peak_heap": engine.peak_heap_size,
        "network.flows": flows,
        "network.wakeups_per_flow": wakeups / flows if flows else 0.0,
        "network.sim_contention_s": summary.network_contention_s,
        "network.sim_flow_p99_s": kind("network_flow", "p99_s"),
        "faas.controller.redrives": redrives,
        "faas.controller.redrives_per_placement": (
            redrives / submits if submits else 0.0
        ),
        "faas.controller.sim_queue_wait_p99_s": kind("queue", "p99_s"),
        "faas.invoker.cold_starts": count("Invoker.cold_start"),
        "faas.invoker.sim_cold_start_p99_s": kind("cold_start", "p99_s"),
        "checkpoint.taken": summary.checkpoints_taken,
        "checkpoint.sim_time_s": summary.checkpoint_time_s,
        "core.execution.failures": summary.failures,
        "core.execution.sim_restore_total_s": kind("restore", "total_s"),
        "replication.replicas_launched": summary.replicas_launched,
        "detection.heartbeats": count("hb"),
        "detection.false_suspicions": summary.false_suspicions,
        "detection.sim_latency_mean_s": summary.detection_latency_mean_s,
        "traffic.arrivals": summary.invocations_offered,
        "autoscale.scale_outs": summary.scale_outs,
        "autoscale.scale_ins": summary.scale_ins,
        "autoscale.nodes_peak": summary.nodes_peak,
        "adaptive.epochs": summary.adaptive_epochs,
        "adaptive.retunes": (
            summary.adaptive_interval_changes
            + summary.adaptive_boost_changes
            + summary.adaptive_hint_changes
        ),
    })
    return out


def main(argv: list[str]) -> int:
    workload, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
    if not (SRC / "repro").is_dir():
        print(f"program source not found at {SRC}", file=sys.stderr)
        return 2
    ref_before_s = reference_s()
    t0 = time.perf_counter()  # set-up starts: before ``import repro``
    sys.path[:0] = [str(SRC), str(HERE)]
    tracer = None
    if traced:
        from layers import HostTracer

        tracer = HostTracer()
        tracer.install()
    from repro.core.canary import CanaryPlatform
    from repro.experiments.runner import run_scenario, run_traced, run_traffic
    from workloads import WORKLOADS

    seen: dict = {}
    inner = CanaryPlatform.run

    def run(self, until=None):
        seen["setup_s"] = time.perf_counter() - t0
        start = time.perf_counter()
        try:
            return inner(self, until)
        finally:
            seen["run_s"] = time.perf_counter() - start
            seen["platform"] = self

    CanaryPlatform.run = run
    scenario = WORKLOADS[workload]()
    traced_run = None
    if traced:
        traced_run = run_traced(scenario, seed)
        summary = traced_run.summary
    elif scenario.traffic is not None:
        summary = run_traffic(scenario, seed).summary
    else:
        summary = run_scenario(scenario, seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Bracket the run: the mean of a reference taken before set-up and
    # one taken after the run tracks the machine's speed during the run.
    ref_s = (ref_before_s + reference_s()) / 2
    platform = seen["platform"]
    offered = (
        summary.invocations_offered
        if scenario.traffic is not None
        else scenario.num_functions
    )
    fields = asdict(summary)
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": seen["setup_s"],
        "run_s": seen["run_s"],
        "ref_s": ref_s,
        "rss_mb": rss_mb,
        "offered": offered,
        "events": platform.sim.events_processed,
        "summary": fields,
        "digest": hashlib.sha256(
            json.dumps(fields, sort_keys=True).encode()
        ).hexdigest(),
        "checks": _checks(platform, summary, offered),
    }
    if traced:
        times = tracer.layer_times()
        record["layers"] = _layer_metrics(platform, summary, traced_run, times)
        record["unmapped"] = times["unmapped"]
        tracer.write_jsonl(HERE / "out" / f"{workload}.spans.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
