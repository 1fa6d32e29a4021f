"""Command-line interface.

Installed as ``canary-sim`` (also runnable via ``python -m repro``):

.. code-block:: console

    canary-sim workloads                       # list workload profiles
    canary-sim strategies                      # list recovery strategies
    canary-sim tiers                           # list storage tiers
    canary-sim topology                        # racks + network presets
    canary-sim run --workload dl-training --strategy canary \
               --error-rate 0.15 --functions 100 --seed 0
    canary-sim run --workload graph-bfs --network 10gbe   # contended fabric
    canary-sim trace --workload graph-bfs --error-rate 0.25 \
               --out trace.json                # span trace for chrome://tracing
    canary-sim figure fig7 --fast              # regenerate a paper figure
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from repro.autoscale import AdmissionConfig, AutoscaleConfig
from repro.common.types import RecoveryStrategyName, ReplicationStrategyName
from repro.experiments import FIGURES
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import run_scenario, run_traced
from repro.network.config import NETWORK_PRESETS
from repro.policies import PLACEMENT_POLICIES
from repro.workloads.profiles import WORKLOADS_BY_NAME


def _cmd_workloads(args: argparse.Namespace) -> int:
    print(f"{'name':16s} {'runtime':8s} {'states':>6s} {'state(s)':>9s} "
          f"{'ckpt size':>12s}")
    for name in sorted(WORKLOADS_BY_NAME):
        profile = WORKLOADS_BY_NAME[name]
        print(
            f"{name:16s} {profile.runtime.value:8s} {profile.n_states:6d} "
            f"{profile.state_duration_s:8.2f}s "
            f"{profile.checkpoint_size_bytes / 2**20:10.1f}MiB"
        )
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    for name in RecoveryStrategyName:
        print(name.value)
    return 0


def _cmd_tiers(args: argparse.Namespace) -> int:
    from repro.storage.tiers import DEFAULT_TIERS

    print(f"{'name':10s} {'read lat':>9s} {'write lat':>9s} "
          f"{'read bw':>10s} {'write bw':>10s} {'shared':>6s} {'durable':>7s}")
    for tier in DEFAULT_TIERS:
        print(
            f"{tier.name:10s} {tier.read_latency_s * 1e3:7.1f}ms "
            f"{tier.write_latency_s * 1e3:7.1f}ms "
            f"{tier.read_bandwidth / 2**30:7.2f}GiB "
            f"{tier.write_bandwidth / 2**30:7.2f}GiB "
            f"{'yes' if tier.shared else 'no':>6s} "
            f"{'yes' if tier.survives_node_failure else 'no':>7s}"
        )
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    racks: dict[str, list[str]] = {}
    for index in range(args.nodes):
        racks.setdefault(args.topology.rack_for(index), []).append(
            f"node-{index:02d}"
        )
    for rack in sorted(racks):
        print(f"{rack}: {' '.join(racks[rack])}")
    print()
    print(f"{'preset':8s} {'nic':>9s} {'uplink':>9s} {'core':>9s} "
          f"{'registry':>9s} {'hop lat':>8s}")
    for name in sorted(NETWORK_PRESETS):
        preset = NETWORK_PRESETS[name]
        if preset is None:
            print(f"{name:8s} {'(legacy uncontended model)':>9s}")
            continue
        print(
            f"{name:8s} {preset.nic_bandwidth * 8 / 1e9:6.0f}Gb "
            f"{preset.uplink_bandwidth * 8 / 1e9:6.0f}Gb "
            f"{preset.core_bandwidth * 8 / 1e9:6.0f}Gb "
            f"{preset.registry_bandwidth * 8 / 1e9:6.0f}Gb "
            f"{preset.hop_latency_s * 1e6:5.0f}us"
        )
    return 0


def _set_only(**kwargs) -> dict:
    """The keyword arguments the user actually set (drops the ``None``s), so
    a config class's own defaults fill in the rest."""
    return {key: value for key, value in kwargs.items() if value is not None}


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """Build the full scenario for ``run``, ``trace`` and ``traffic``.

    Everything, traffic, admission and autoscaler included, goes into one
    :class:`ScenarioConfig`, so its validation sees the final combination.
    Raises ``ValueError`` on an invalid flag combination.
    """
    chaos = detection = backoff = None
    if args.chaos:
        from repro.detection import BackoffPolicy, DetectionConfig
        from repro.faults.chaos import default_chaos_preset

        chaos = default_chaos_preset()
        detection = DetectionConfig()
        backoff = BackoffPolicy()
    adaptive = None
    if args.adaptive:
        from repro.adaptive import AdaptiveConfig

        adaptive = AdaptiveConfig()
    cloning = None
    if args.clones is not None:
        from repro.strategies.cloning import CloningConfig

        cloning = CloningConfig(clones=args.clones)
    traffic = autoscale = None
    if args.command == "traffic":
        traffic, autoscale = _traffic_from_args(args)
    return ScenarioConfig(
        workload=args.workload,
        strategy=args.strategy,
        error_rate=args.error_rate,
        num_functions=args.functions,
        num_nodes=args.nodes,
        jobs=args.jobs,
        replication_strategy=args.replication,
        checkpoint_interval=args.checkpoint_interval,
        node_failure_count=args.node_failures,
        network=NETWORK_PRESETS[args.network],
        chaos=chaos,
        detection=detection,
        backoff=backoff,
        traffic=traffic,
        autoscale=autoscale,
        placement=args.placement,
        adaptive=adaptive,
        cloning=cloning,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    summary = run_scenario(args.scenario, seed=args.seed)
    if args.json:
        print(json.dumps(asdict(summary), indent=2))
        return 0
    print(f"strategy          : {summary.strategy}")
    print(f"workload          : {summary.workload}")
    print(f"functions         : {summary.completed}/{summary.num_functions} "
          f"completed on {summary.num_nodes} nodes")
    print(f"error rate        : {summary.error_rate:.0%} "
          f"({summary.failures} failures, {summary.unrecovered} unrecovered)")
    print(f"makespan          : {summary.makespan_s:.2f}s")
    print(f"recovery (total)  : {summary.total_recovery_s:.2f}s")
    print(f"recovery (mean)   : {summary.mean_recovery_s:.2f}s")
    print(f"checkpoints       : {summary.checkpoints_taken} "
          f"({summary.checkpoint_time_s:.2f}s charged)")
    print(f"replicas launched : {summary.replicas_launched}")
    if args.network != "off":
        print(f"network           : {summary.network_flows} flows, "
              f"{summary.network_bytes / 2**30:.2f}GiB moved, "
              f"{summary.network_contention_s:.2f}s contention delay, "
              f"peak link util {summary.network_peak_utilization:.1%}")
    if args.chaos:
        print(f"chaos             : {summary.detections} detections "
              f"({summary.detection_latency_mean_s:.2f}s mean latency), "
              f"{summary.false_suspicions} false suspicions, "
              f"{summary.degraded_s:.2f}s degraded")
    if getattr(args, "adaptive", False):
        print(f"adaptive          : {summary.adaptive_epochs} epochs, "
              f"{summary.adaptive_interval_changes} interval / "
              f"{summary.adaptive_boost_changes} boost / "
              f"{summary.adaptive_hint_changes} hint retunes")
    print(f"cost              : ${summary.cost_total:.4f} "
          f"(functions ${summary.cost_function:.4f}, "
          f"replicas ${summary.cost_replica:.4f}, "
          f"standbys ${summary.cost_standby:.4f})")
    return 0


def _traffic_tenants(args: argparse.Namespace):
    """Build the tenant set for ``canary-sim traffic``.

    ``--profile mixed`` cycles Poisson / diurnal / on-off processes across
    the tenants so one command exercises every arrival shape;
    ``--profile poisson`` keeps them homogeneous.
    """
    from repro.sla.policy import SLAPolicy
    from repro.traffic import (
        DiurnalArrivals,
        OnOffArrivals,
        PoissonArrivals,
        Tenant,
    )

    sla = (
        SLAPolicy(deadline_s=args.deadline)
        if args.deadline is not None
        else None
    )
    tenants = []
    for index in range(args.tenants):
        if args.profile == "poisson" or index % 3 == 0:
            arrivals = PoissonArrivals(rate_per_s=args.rate)
        elif index % 3 == 1:
            arrivals = DiurnalArrivals(
                base_rate_per_s=args.rate,
                amplitude=0.6,
                period_s=max(args.duration / 2.0, 1.0),
            )
        else:
            arrivals = OnOffArrivals(
                on_rate_per_s=3.0 * args.rate,
                mean_on_s=max(args.duration / 10.0, 1.0),
                mean_off_s=max(args.duration / 5.0, 1.0),
            )
        tenants.append(
            Tenant(
                name=f"tenant-{index:02d}",
                arrivals=arrivals,
                workloads=(args.workload,),
                sla=sla,
            )
        )
    return tuple(tenants)


def _traffic_from_args(args: argparse.Namespace):
    """The ``TrafficConfig`` and ``AutoscaleConfig`` of ``canary-sim
    traffic``; flags left unset take the config classes' defaults."""
    from repro.traffic import TrafficConfig

    if not args.autoscale and (
        args.min_nodes is not None or args.max_nodes is not None
    ):
        raise ValueError("--min-nodes/--max-nodes need --autoscale")
    if args.admit_rate is None and args.admit_burst is not None:
        raise ValueError("--admit-burst needs --admit-rate")
    admission = None
    if args.admit_rate is not None or args.shed_depth is not None:
        admission = AdmissionConfig(**_set_only(
            tenant_rate_per_s=args.admit_rate,
            tenant_burst=args.admit_burst,
            queue_shed_depth=args.shed_depth,
        ))
    traffic = TrafficConfig(
        tenants=_traffic_tenants(args),
        duration_s=args.duration,
        admission=admission,
    )
    autoscale = None
    if args.autoscale:
        autoscale = AutoscaleConfig(**_set_only(
            min_nodes=args.min_nodes, max_nodes=args.max_nodes
        ))
    return traffic, autoscale


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_traffic

    result = run_traffic(args.scenario, seed=args.seed)
    summary = result.summary
    if args.json:
        record = {
            "summary": asdict(summary),
            "tenants": result.tenants,
            "scale_events": [list(e) for e in result.scale_events],
        }
        print(json.dumps(record, indent=2))
        return 0
    admitted = summary.invocations_offered - summary.invocations_shed
    print(f"strategy          : {summary.strategy}")
    print(f"tenants           : {args.tenants} over {args.duration:.0f}s "
          f"({args.profile} arrivals at {args.rate}/s each)")
    print(f"invocations       : {summary.invocations_offered} offered, "
          f"{admitted} admitted, {summary.invocations_shed} shed")
    print(f"latency           : p50 {summary.latency_p50_s:.3f}s  "
          f"p99 {summary.latency_p99_s:.3f}s  "
          f"p999 {summary.latency_p999_s:.3f}s")
    print(f"SLO violations    : {summary.slo_violations}")
    if args.autoscale:
        print(f"autoscaler        : {summary.scale_outs} scale-outs, "
              f"{summary.scale_ins} scale-ins, peak {summary.nodes_peak} "
              f"nodes")
    print(f"makespan          : {summary.makespan_s:.2f}s")
    print(f"cost              : ${summary.cost_total:.4f}")
    print()
    print(f"{'tenant':12s} {'offered':>8s} {'shed':>6s} {'p50':>8s} "
          f"{'p99':>8s} {'p999':>8s} {'SLO viol':>9s}")
    for name, row in result.tenants.items():
        print(
            f"{name:12s} {row['offered']:8d} {row['shed']:6d} "
            f"{row['latency_p50_s']:8.3f} {row['latency_p99_s']:8.3f} "
            f"{row['latency_p999_s']:8.3f} {row['slo_violations']:9d}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import (
        aggregate_spans,
        format_stats_table,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )

    traced = run_traced(args.scenario, seed=args.seed)
    write_chrome_trace(traced.spans, args.out)
    n_events = validate_chrome_trace(args.out)
    if args.jsonl:
        write_jsonl(traced.spans, args.jsonl)
    summary = traced.summary
    print(f"workload          : {summary.workload} "
          f"({summary.strategy}, seed {args.seed})")
    print(f"functions         : {summary.completed}/{summary.num_functions} "
          f"completed, {summary.failures} failures")
    print(f"makespan          : {summary.makespan_s:.2f}s")
    print(f"spans             : {len(traced.spans)} "
          f"({n_events} chrome events) -> {args.out}")
    if args.jsonl:
        print(f"jsonl             : {args.jsonl}")
    print()
    print(format_stats_table(aggregate_spans(traced.spans)))
    if traced.engine is not None:
        from repro.metrics.engine import format_engine_stats

        print()
        print(format_engine_stats(traced.engine))
    print()
    print("open the trace in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _figure_command(args: argparse.Namespace) -> int:
    """Regenerate one paper figure (same engine as examples/paper_figures)."""
    module = FIGURES[args.name]
    kwargs = {}
    if args.fast:
        kwargs["seeds"] = range(3)
    if args.jobs is not None:
        kwargs["jobs"] = args.jobs
    if args.placement is not None:
        kwargs["placement"] = args.placement
    result = module.run(**kwargs)
    print(format_table(result))
    if args.chart:
        from repro.experiments.charts import series_chart

        series_col = result.columns[0]
        x_col = result.columns[1] if len(result.columns) > 1 else series_col
        numeric = [
            c for c in result.columns
            if c not in (series_col, x_col)
            and result.rows
            and isinstance(result.rows[0].get(c), float)
        ]
        if numeric:
            print()
            print(
                series_chart(
                    result, x=x_col, y=numeric[0], series=series_col
                )
            )
    return 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Scenario flags shared by ``run``, ``traffic`` and ``trace``; the
    defaults are :class:`ScenarioConfig`'s own."""
    defaults = ScenarioConfig()
    parser.add_argument("--workload", default=defaults.workload,
                        choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--strategy",
                        default=RecoveryStrategyName(defaults.strategy).value,
                        choices=[s.value for s in RecoveryStrategyName])
    parser.add_argument(
        "--replication",
        default=ReplicationStrategyName(defaults.replication_strategy).value,
        choices=[s.value for s in ReplicationStrategyName],
    )
    parser.add_argument("--error-rate", type=float, default=0.15,
                        help="per-attempt failure rate (default 0.15, the "
                        "paper's fixed rate, rather than the failure-free "
                        "scenario default)")
    parser.add_argument("--functions", type=int,
                        default=defaults.num_functions)
    parser.add_argument("--nodes", type=int, default=defaults.num_nodes)
    parser.add_argument("--jobs", type=int, default=defaults.jobs)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkpoint-interval", type=int,
                        default=defaults.checkpoint_interval)
    parser.add_argument("--node-failures", type=int,
                        default=defaults.node_failure_count)
    parser.add_argument("--network", default="off",
                        choices=sorted(NETWORK_PRESETS),
                        help="fabric model preset (off = legacy uncontended)")
    parser.add_argument("--chaos", action="store_true",
                        help="enable the gray-failure preset (stragglers, "
                        "a zombie, a partition, a KV brownout) plus "
                        "heartbeat detection and retry backoff")
    parser.add_argument("--adaptive", action="store_true",
                        help="enable the S40 feedback controller that "
                        "retunes checkpoint interval, replication boost "
                        "and placement hints each epoch")
    parser.add_argument("--clones", type=int, default=None, metavar="K",
                        help="clone count for --strategy cloning "
                        "(first finisher wins; default 2)")
    parser.add_argument("--placement", default=defaults.placement,
                        choices=sorted(PLACEMENT_POLICIES),
                        help="S39 placement policy for cold starts and "
                        "replicas (locality = the paper's rules, "
                        "byte-identical to the pre-policy platform)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canary-sim",
        description="Canary (SC'22) reproduction: simulate fault-tolerant "
        "FaaS scenarios and regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list workload profiles").set_defaults(
        func=_cmd_workloads
    )
    sub.add_parser("strategies", help="list recovery strategies").set_defaults(
        func=_cmd_strategies
    )
    sub.add_parser("tiers", help="list storage tier constants").set_defaults(
        func=_cmd_tiers
    )
    topology = sub.add_parser(
        "topology", help="show rack assignments and network link presets"
    )
    topology.add_argument("--nodes", type=int, default=16)
    topology.add_argument("--racks", type=int, default=4)
    topology.set_defaults(func=_cmd_topology)

    run = sub.add_parser("run", help="simulate one scenario")
    _add_run_flags(run)
    run.add_argument("--json", action="store_true",
                     help="emit the summary as JSON")
    run.set_defaults(func=_cmd_run)

    traffic = sub.add_parser(
        "traffic",
        help="simulate open-loop multi-tenant traffic (repro.traffic)",
    )
    _add_run_flags(traffic)
    admission, autoscale = AdmissionConfig(), AutoscaleConfig()
    traffic.add_argument("--tenants", type=int, default=3,
                         help="number of traffic tenants")
    traffic.add_argument("--rate", type=float, default=1.0,
                         help="mean arrival rate per tenant (1/s)")
    traffic.add_argument("--duration", type=float, default=60.0,
                         help="arrival-generation horizon (s)")
    traffic.add_argument("--profile", default="mixed",
                         choices=("mixed", "poisson"),
                         help="arrival shapes: mixed cycles poisson/diurnal/"
                         "on-off across tenants")
    traffic.add_argument("--deadline", type=float, default=None,
                         help="per-invocation SLO deadline (s)")
    traffic.add_argument("--admit-rate", type=float, default=None,
                         help="per-tenant admitted rate (token bucket, 1/s)")
    traffic.add_argument("--admit-burst", type=float, default=None,
                         help="per-tenant burst allowance (needs "
                         f"--admit-rate; default {admission.tenant_burst:g})")
    traffic.add_argument("--shed-depth", type=int, default=None,
                         help="global backlog beyond which arrivals shed")
    traffic.add_argument("--autoscale", action="store_true",
                         help="enable the node autoscaler")
    traffic.add_argument("--min-nodes", type=int, default=None,
                         help="autoscaler floor (needs --autoscale; "
                         f"default {autoscale.min_nodes})")
    traffic.add_argument("--max-nodes", type=int, default=None,
                         help="autoscaler ceiling (needs --autoscale; "
                         f"default {autoscale.max_nodes})")
    traffic.add_argument("--json", action="store_true",
                         help="emit summary + per-tenant rows as JSON")
    traffic.set_defaults(func=_cmd_traffic)

    trace = sub.add_parser(
        "trace",
        help="simulate one scenario with span tracing and export the trace",
    )
    _add_run_flags(trace)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace_event JSON output path "
                       "(default: trace.json)")
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="also write flat one-span-per-line JSONL here")
    trace.set_defaults(func=_cmd_trace)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", choices=list(FIGURES))
    figure.add_argument("--fast", action="store_true")
    figure.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the sweep (default: one "
                        "per core; 1 forces serial in-process execution)")
    figure.add_argument("--placement", default=None,
                        choices=sorted(PLACEMENT_POLICIES),
                        help="override every cell's S39 placement policy "
                        "(default: each scenario's own, i.e. locality)")
    figure.add_argument("--chart", action="store_true",
                        help="append a terminal bar chart of the first "
                        "numeric column")
    figure.set_defaults(func=_figure_command)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Invalid flag values and combinations are usage errors, not
    # tracebacks.
    try:
        if args.func in (_cmd_run, _cmd_traffic, _cmd_trace):
            args.scenario = _scenario_from_args(args)
        elif args.func is _cmd_topology:
            from repro.cluster.topology import Topology

            if args.nodes <= 0:
                raise ValueError("num_nodes must be positive")
            args.topology = Topology(num_racks=args.racks)
    except ValueError as exc:
        parser.error(str(exc))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
