"""The feature benches' gates as one table of claim rows.

Each bench module holds its cells and a ``run()`` that returns one plain
record.  Each gate is a :class:`~repro.experiments.claims.Claim` row whose
id starts with its bench's name and whose ``measure`` reads that record, so
the rows follow the rules of the paper-claim table: an id, a bound, one
predicate, no xfail.  ``benchmarks/test_features.py`` checks every row and
writes the record of each bench in ``RESULT_FILES`` at the repo root, so a
committed result file is a pure function of the code.
"""

from __future__ import annotations

from typing import Any

from features import (
    adaptive,
    chaos,
    heterogeneity,
    network,
    open_loop,
    policy,
    prediction,
    retention,
    sla,
    tiers,
    traffic,
    warm_starts,
)

from repro.experiments.claims import Claim

#: Bench name (the prefix of its rows' ids) -> its module.
BENCHES = {
    "adaptive": adaptive,
    "chaos": chaos,
    "policy": policy,
    "traffic": traffic,
    "open-loop": open_loop,
    "network": network,
    "sla": sla,
    "retention": retention,
    "prediction": prediction,
    "heterogeneity": heterogeneity,
    "tiers": tiers,
    "warm-starts": warm_starts,
}

#: Benches whose record is committed, and the file it is written to.
RESULT_FILES = {
    "adaptive": "BENCH_adaptive.json",
    "chaos": "BENCH_chaos.json",
    "policy": "BENCH_policy.json",
    "traffic": "BENCH_traffic.json",
    "open-loop": "BENCH_open_loop.json",
    "network": "BENCH_network.json",
}


def _where(rows: list[dict], **match) -> list[dict]:
    return [row for row in rows if all(row[k] == v for k, v in match.items())]


def _one(rows: list[dict], **match) -> dict:
    (row,) = _where(rows, **match)
    return row


def _adaptive_parity_gap(record: dict) -> float:
    """Adaptive-canary's SLO violations minus the best static strategy's,
    worst archetype."""
    matrix = record["matrix"]
    return max(
        _one(matrix, strategy="adaptive-canary",
             archetype=archetype)["slo_violations"]
        - min(row["slo_violations"] for row in _where(matrix,
                                                      archetype=archetype)
              if row["strategy"] in adaptive.STATIC)
        for archetype in record["archetypes"]
    )


def _ahead_of_cloning(record: dict, archetype: str) -> int:
    """Strategies strictly ahead of cloning in one archetype's cell."""
    cells = _where(record["matrix"], archetype=archetype)
    cloning = adaptive.tournament_key(_one(cells, strategy="cloning"))
    return sum(adaptive.tournament_key(row) < cloning for row in cells)


def _at(record: dict, column: str, **match) -> Any:
    """*column* of the one row of ``record["rows"]`` that matches."""
    return _one(record["rows"], **match)[column]


def _sustained_tenants(record: dict) -> list[dict]:
    return list(_at(record, "tenants", cell="sustained").values())


def _hog_unaccounted(record: dict) -> int:
    hog = _at(record, "tenants", cell="overload")["hog"]
    return hog["offered"] - hog["admitted"] - hog["shed"]


def _ramp_events(record: dict, direction: str) -> int:
    return sum(d == direction for _, d, _ in record["ramp_events"])


def _heterogeneity(record: dict, column: str, cluster: str) -> float:
    """Canary's *column* over retry's on one cluster mix."""
    return (_at(record, column, cluster=cluster, strategy="canary")
            / _at(record, column, cluster=cluster, strategy="retry"))


_CLUSTERS = ("heterogeneous", "homogeneous")

#: Every feature-bench gate, one row each.  Min/max are over every cell
#: the text names, so a bound holds in each of them.
FEATURE_CLAIMS: tuple[Claim, ...] = (
    Claim("adaptive.every-cell-admits",
          "admitted invocations, min over cells",
          "no strategy wedges the platform",
          lambda r: min(row["admitted"] for row in r["matrix"]), ">", 0),
    Claim("adaptive.every-cell-drains",
          "makespan, min over cells (s)",
          "no strategy wedges the platform",
          lambda r: min(row["makespan_s"] for row in r["matrix"]), ">", 0),
    Claim("adaptive.controller-runs",
          "adaptive epochs, min over adaptive-canary cells",
          "the controller runs where enabled",
          lambda r: min(row["adaptive_epochs"] for row in
                        _where(r["matrix"], strategy="adaptive-canary")),
          ">", 0),
    Claim("adaptive.controller-off-elsewhere",
          "adaptive epochs, max over the other strategies' cells",
          "and nowhere else",
          lambda r: max(row["adaptive_epochs"] for row in r["matrix"]
                        if row["strategy"] != "adaptive-canary"), "==", 0),
    Claim("adaptive.slo-parity",
          "adaptive-canary minus best static SLO violations, max over "
          "archetypes",
          "feedback never loses to a fixed knob",
          _adaptive_parity_gap, "<=", 0),
    Claim("adaptive.cloning-wins-storm",
          "strategies ahead of cloning on straggler-storm (SLO violations, "
          "then admitted p99)",
          "redundancy dodges slow nodes",
          lambda r: _ahead_of_cloning(r, "straggler-storm"), "==", 0),
    Claim("chaos.every-cell-completes",
          "completed over offered functions, min over cells",
          "gray failures degrade, never lose work",
          lambda r: (min(row["completed"] for row in r["matrix"])
                     / (chaos.NUM_FUNCTIONS * len(chaos.SEEDS))), "==", 1),
    Claim("chaos.zombie-detected",
          "zombie-cell detections per seed, min over strategies",
          "a zombie is detected",
          lambda r: min(row["detections"] / len(row["seeds"])
                        for row in _where(r["matrix"], archetype="zombie")),
          ">=", 1),
    Claim("chaos.calm-no-detections",
          "detections without chaos, max over strategies",
          "no false detections",
          lambda r: max(row["detections"]
                        for row in _where(r["matrix"], archetype="none")),
          "==", 0),
    Claim("chaos.calm-not-degraded",
          "degraded seconds without chaos, max over strategies",
          "nothing degraded",
          lambda r: max(row["degraded_s"]
                        for row in _where(r["matrix"], archetype="none")),
          "==", 0),
    Claim("policy.every-cell-admits",
          "admitted invocations, min over cells",
          "no policy wedges the platform",
          lambda r: min(row["admitted"] for row in r["matrix"]), ">", 0),
    Claim("policy.every-cell-drains",
          "makespan, min over cells (s)",
          "no policy wedges the platform",
          lambda r: min(row["makespan_s"] for row in r["matrix"]), ">", 0),
    Claim("traffic.sustained-volume",
          "sustained invocations offered",
          ">= 10^5 through the admission queue",
          lambda r: _at(r, "offered", cell="sustained"), ">=", 100_000),
    Claim("traffic.sustained-no-shed",
          "sustained invocations shed (no admission configured)",
          "nothing shed",
          lambda r: _at(r, "shed", cell="sustained"), "==", 0),
    Claim("traffic.sustained-p99",
          "sustained p99 latency (s)",
          "steady state, < 2 x 30 s deadline",
          lambda r: _at(r, "latency_p99_s", cell="sustained"), "<",
          2 * traffic.DEADLINE.deadline_s),
    Claim("traffic.sustained-tenants-offered",
          "sustained invocations offered, min over tenants",
          "every tenant offers load",
          lambda r: min(t["offered"] for t in _sustained_tenants(r)), ">", 0),
    Claim("traffic.sustained-tenants-p99",
          "sustained p99 latency, min over tenants (s)",
          "every tenant has a latency tail",
          lambda r: min(t["latency_p99_s"] for t in _sustained_tenants(r)),
          ">", 0),
    Claim("traffic.sustained-tenant-tails",
          "sustained p99.9 minus p99, min over tenants (s)",
          "quantiles ordered",
          lambda r: min(t["latency_p999_s"] - t["latency_p99_s"]
                        for t in _sustained_tenants(r)), ">=", 0),
    Claim("traffic.ramp-scales-out",
          "ramp scale-out events",
          "a full autoscaler cycle",
          lambda r: _ramp_events(r, "out"), ">=", 1),
    Claim("traffic.ramp-scales-in",
          "ramp scale-in events",
          "a full autoscaler cycle",
          lambda r: _ramp_events(r, "in"), ">=", 1),
    Claim("traffic.ramp-within-max",
          "ramp peak nodes",
          "<= the autoscaler's max_nodes",
          lambda r: _at(r, "nodes_peak", cell="ramp"), "<=",
          traffic.RAMP_AUTOSCALE.max_nodes),
    Claim("traffic.overload-sheds",
          "overload invocations shed",
          "admission sheds at ~3x capacity",
          lambda r: _at(r, "shed", cell="overload"), ">", 0),
    Claim("traffic.overload-conserves",
          "hog tenant offered - admitted - shed",
          "every arrival admitted or shed",
          _hog_unaccounted, "==", 0),
    Claim("traffic.overload-admitted-p99",
          "overload p99 latency of admitted invocations (s)",
          "shedding bounds admitted latency",
          lambda r: _at(r, "latency_p99_s", cell="overload"), "<", 30),
    Claim("traffic.overload-no-slo-violations",
          "overload SLO violations",
          "admitted work meets its deadline",
          lambda r: _at(r, "slo_violations", cell="overload"), "==", 0),
    Claim("traffic.gray-ramp-offered",
          "invocations offered with a zombie mid-ramp",
          "the ramp runs through a gray failure",
          lambda r: _at(r, "offered", cell="chaos-ramp"), ">", 0),
    Claim("open-loop.ideal-available",
          "ideal availability",
          "1 (no failures)",
          lambda r: _at(r, "availability", strategy="ideal"), "==", 1),
    Claim("open-loop.canary-below-retry",
          "Canary/retry mean recovery",
          "Canary keeps its recovery lead",
          lambda r: (_at(r, "mean_recovery_s", strategy="canary")
                     / _at(r, "mean_recovery_s", strategy="retry")), "<", 0.5),
    Claim("open-loop.canary-more-available",
          "Canary minus retry availability",
          "Canary more available",
          lambda r: (_at(r, "availability", strategy="canary")
                     - _at(r, "availability", strategy="retry")), ">", 0),
    Claim("open-loop.canary-drains-first",
          "Canary/retry makespan",
          "the stream drains sooner",
          lambda r: (_at(r, "makespan_s", strategy="canary")
                     / _at(r, "makespan_s", strategy="retry")), "<", 1),
    Claim("network.all-complete",
          "runs that left functions unfinished",
          "every run completes",
          lambda r: sum(row["incomplete_runs"] for row in r["rows"]),
          "==", 0),
    Claim("network.off-no-flows",
          "fabric flows with the fabric off, all runs",
          "the legacy model opens no flow",
          lambda r: sum(row["network_flows_off"] for row in r["rows"]),
          "==", 0),
    Claim("network.fabric-carries-flows",
          "fabric flows on 10 GbE, min over runs",
          "every transfer is a flow",
          lambda r: min(row["network_flows_min"] for row in r["rows"]),
          ">", 0),
    Claim("network.contention-every-scale",
          "contention delay, min over scales (s)",
          "contention is real at every scale",
          lambda r: min(row["contention_s"] for row in r["rows"]), ">", 0),
    Claim("network.fabric-never-faster",
          "contended minus uncontended makespan, min over scales (s)",
          "sharing never speeds a run up",
          lambda r: min(row["makespan_net_s"] - row["makespan_off_s"]
                        for row in r["rows"]), ">=", 0),
    Claim("network.reaches-800",
          "largest invocation count swept",
          "the sweep reaches an 800-function burst",
          lambda r: r["rows"][-1]["invocations"], ">=", 800),
    Claim("network.800-slowdown",
          "contended/uncontended makespan at the largest scale",
          "a measurable slowdown",
          lambda r: (r["rows"][-1]["makespan_net_s"]
                     / r["rows"][-1]["makespan_off_s"]), ">", 1.01),
    Claim("network.800-peak-utilization",
          "peak link utilization at the largest scale",
          "links saturate",
          lambda r: r["rows"][-1]["peak_link_utilization"], ">", 0.5),
    Claim("sla.canary-beats-retry",
          "Canary minus retry deadline hit rate",
          "checkpoints rescue deadlines",
          lambda r: (_at(r, "deadline_hit_rate", strategy="canary")
                     - _at(r, "deadline_hit_rate", strategy="retry")), ">", 0),
    Claim("sla.aware-at-least-canary",
          "canary-sla minus Canary deadline hit rate",
          "SLA-awareness at least as compliant",
          lambda r: (_at(r, "deadline_hit_rate", strategy="canary-sla")
                     - _at(r, "deadline_hit_rate", strategy="canary")),
          ">=", -1e-9),
    Claim("sla.retry-misses",
          "retry deadline hit rate",
          "the deadline separates strategies",
          lambda r: _at(r, "deadline_hit_rate", strategy="retry"), "<", 1),
    Claim("retention.fewer-checkpoints",
          "checkpoints taken, min drop from interval 1 to 2 and 2 to 4",
          "wider intervals checkpoint less",
          lambda r: min(_at(r, "checkpoints", interval=a)
                        - _at(r, "checkpoints", interval=b)
                        for a, b in ((1, 2), (2, 4))), ">", 0),
    Claim("retention.less-checkpoint-time",
          "checkpoint time, interval 4 over interval 1",
          "wider intervals spend less on checkpoints",
          lambda r: (_at(r, "checkpoint_time_s", interval=4)
                     / _at(r, "checkpoint_time_s", interval=1)), "<", 1),
    Claim("retention.more-redo",
          "mean recovery, interval 4 over interval 1",
          "but redo more per failure",
          lambda r: (_at(r, "mean_recovery_s", interval=4)
                     / _at(r, "mean_recovery_s", interval=1)), ">", 1),
    Claim("prediction.fewer-losses",
          "functions lost with dying nodes, on minus off",
          "draining saves doomed functions",
          lambda r: (_at(r, "node_failure_losses", prediction="on")
                     - _at(r, "node_failure_losses", prediction="off")),
          "<", 0),
    Claim("prediction.migrates",
          "proactive migrations with prediction on",
          "the mitigator acts",
          lambda r: _at(r, "proactive_migrations", prediction="on"), ">", 0),
    Claim("prediction.less-recovery",
          "total recovery, on minus off (s)",
          "the recovery bill shrinks",
          lambda r: (_at(r, "total_recovery_s", prediction="on")
                     - _at(r, "total_recovery_s", prediction="off")), "<", 0),
    Claim("heterogeneity.canary-mean-below-retry",
          "Canary/retry mean recovery, max over cluster mixes",
          "heterogeneity does not erode the win",
          lambda r: max(_heterogeneity(r, "mean_recovery_s", cluster)
                        for cluster in _CLUSTERS), "<", 0.4),
    Claim("heterogeneity.canary-spread-below-retry",
          "Canary/retry recovery stdev, max over cluster mixes",
          "Canary's recovery is steadier",
          lambda r: max(_heterogeneity(r, "stdev_recovery_s", cluster)
                        for cluster in _CLUSTERS), "<", 1),
    Claim("heterogeneity.mixed-spread",
          "Canary/retry recovery stdev on the heterogeneous mix",
          "fast-node replicas keep the spread tight",
          lambda r: _heterogeneity(r, "stdev_recovery_s", "heterogeneous"),
          "<", 0.5),
    Claim("tiers.s3-checkpoint-cost",
          "S3/PMem checkpoint time",
          "object storage pays visibly more",
          lambda r: (_at(r, "checkpoint_time_s", tier="s3")
                     / _at(r, "checkpoint_time_s", tier="pmem")), ">", 2),
    Claim("tiers.s3-recovery-above-pmem",
          "S3/PMem mean recovery",
          "restores slowest from S3",
          lambda r: (_at(r, "mean_recovery_s", tier="s3")
                     / _at(r, "mean_recovery_s", tier="pmem")), ">", 1),
    Claim("tiers.nfs-between",
          "checkpoint time, min of NFS - PMem and S3 - NFS (s)",
          "NFS between local tiers and S3",
          lambda r: min(_at(r, "checkpoint_time_s", tier="nfs")
                        - _at(r, "checkpoint_time_s", tier="pmem"),
                        _at(r, "checkpoint_time_s", tier="s3")
                        - _at(r, "checkpoint_time_s", tier="nfs")), ">", 0),
    Claim("warm-starts.fewer-cold-starts",
          "cold starts, reuse on minus off",
          "reuse saves cold starts",
          lambda r: (_at(r, "cold_starts", reuse="on")
                     - _at(r, "cold_starts", reuse="off")), "<", 0),
    Claim("warm-starts.reuse-happens",
          "warm starts with reuse on",
          "containers are reused",
          lambda r: _at(r, "warm_starts", reuse="on"), ">", 0),
    Claim("warm-starts.faster",
          "makespan, reuse on over off",
          "and the batch finishes sooner",
          lambda r: (_at(r, "makespan_s", reuse="on")
                     / _at(r, "makespan_s", reuse="off")), "<", 1),
)
