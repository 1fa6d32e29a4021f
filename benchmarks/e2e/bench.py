"""End-to-end simulator ladder: host time, simulated outcomes, layer shares.

Ladder (all six workloads, rep-major round-robin, then one traced run each)::

    python3 benchmarks/e2e/bench.py [--seed S] [--reps N] [--workloads a,b]
                                    [--out FILE]

One workload for a fixed time budget (last stdout line is one JSON result)::

    python3 benchmarks/e2e/bench.py --workload W --seed S --seconds T --trace 0|1

Compare two ladder result files (host metrics under the ``ladder.json``
bounds, which ``BENCHMARK.json`` repeats; virtual metrics exactly)::

    python3 benchmarks/e2e/bench.py compare A.json B.json

Every rep runs in a fresh child process (``child.py``), one child at a
time.  Exits non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fewest untraced reps a time-budgeted run makes (a median of fewer is
#: one noisy sample).
MIN_REPS = 3
#: Per-child limit in ladder mode; a time-budgeted run instead gives every
#: child what is left of BUDGET_S.
CHILD_TIMEOUT_S = 300.0
BUDGET_S = 170.0
#: Share of run time unmapped event families may take in a traced run.
OTHER_SHARE_MAX = 0.02
#: Simulated outcomes of one seed must agree to this relative tolerance
#: (float reordering only); compare treats them so.
VIRTUAL_REL_TOL = 1e-6


def load_spec() -> dict:
    """``ladder.json``: defaults, metric kinds, expected moves, drift."""
    return json.loads((HERE / "ladder.json").read_text())


def load_benchmark() -> dict:
    """``BENCHMARK.json``: workloads, metric units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last == "us_per_event":
        return "us"
    if last.endswith("_s"):
        return "s"
    if last in ("share", "cancel_ratio", "overhead_ratio") or "_per_" in last:
        return "ratio"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# Running reps
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, traced: bool,
              deadline: float | None) -> dict | None:
    """One rep in a fresh process; None (and stderr shown) when it fails."""
    timeout = CHILD_TIMEOUT_S
    if deadline is not None:
        timeout = deadline - time.perf_counter()
        if timeout <= 0:
            print(f"# {workload}: time budget exhausted", file=sys.stderr)
            return None
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"# {workload}: rep timed out after {timeout:.0f}s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {workload}: rep failed (exit {proc.returncode})\n"
              f"{proc.stderr.strip()}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure(workloads: list[str], seed: int, *, reps: int | None = None,
            seconds: float | None = None, traced: bool = True) -> dict:
    """Untraced reps (round-robin over *workloads*), then traced runs.

    Stops after *reps* rounds, or, with *seconds*, before a round that
    would end past the budget (but never before MIN_REPS rounds).
    """
    deadline = None if seconds is None else time.perf_counter() + BUDGET_S
    runs = {w: {"reps": [], "crashed": 0, "traced": None} for w in workloads}
    start = time.perf_counter()
    rounds = 0
    while True:
        if reps is not None and rounds >= reps:
            break
        if seconds is not None and rounds >= MIN_REPS:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > seconds:
                break
        for workload in workloads:
            record = run_child(workload, seed, False, deadline)
            if record is None:
                runs[workload]["crashed"] += 1
            else:
                runs[workload]["reps"].append(record)
        rounds += 1
        if seconds is not None and any(r["crashed"] for r in runs.values()):
            break
    if traced:
        for workload in workloads:
            record = run_child(workload, seed, True, deadline)
            runs[workload]["traced"] = record
            runs[workload]["crashed"] += record is None
    return runs


# ----------------------------------------------------------------------
# Metrics and checks
# ----------------------------------------------------------------------
def _stat(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _exact(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit, "q1": value, "q3": value, "n": 1}


def summarize(run: dict, spec: dict) -> dict | None:
    """Metrics, checks and counts of one workload; None if no rep ran."""
    reps = run["reps"]
    if not reps:
        return None
    units = {name: meta["unit"] for name, meta in spec["end_to_end"].items()}
    first = reps[0]
    summary = first["summary"]
    offered = first["offered"]
    traced = run["traced"]
    records = reps + ([traced] if traced else [])
    checks = []
    for index, rec in enumerate(records):
        name = "traced run" if rec is traced else f"rep {index}"
        checks += [f"{name}: {c}" for c in rec["checks"]]
    digests = {rec["digest"] for rec in records}
    if len(digests) > 1:
        checks.append(f"determinism: {len(digests)} distinct summary digests")
    if run["crashed"]:
        checks.append(f"{run['crashed']} run(s) crashed")
    shed = summary["invocations_shed"]
    failed = run["crashed"] * offered + sum(
        offered if rec["checks"] else
        rec["summary"]["unrecovered"] + rec["summary"]["invocations_shed"]
        for rec in records)
    attempted = offered * (len(records) + run["crashed"])
    metrics = {
        "wall_ms_per_inv": _stat(
            [rep["run_s"] * 1e3 / rep["offered"] for rep in reps],
            units["wall_ms_per_inv"]),
        "wall_ref_per_1k_inv": _stat(
            [rep["run_s"] / rep["ref_s"] * 1e3 / rep["offered"]
             for rep in reps],
            units["wall_ref_per_1k_inv"]),
        "setup_s": _stat([rep["setup_s"] for rep in reps], units["setup_s"]),
        "peak_rss_mb": _stat([rep["rss_mb"] for rep in reps],
                             units["peak_rss_mb"]),
        "failed_frac": _exact(failed / attempted, units["failed_frac"]),
        "sim_makespan_s": _exact(summary["makespan_s"],
                                 units["sim_makespan_s"]),
        "sim_recovery_mean_s": _exact(summary["mean_recovery_s"],
                                      units["sim_recovery_mean_s"]),
        "cost_usd_per_1k_inv": _exact(summary["cost_total"] * 1e3 / offered,
                                      units["cost_usd_per_1k_inv"]),
    }
    if summary["invocations_offered"]:
        admitted = offered - shed
        metrics["sim_p50_s"] = _exact(summary["latency_p50_s"],
                                      units["sim_p50_s"])
        metrics["sim_p99_s"] = _exact(summary["latency_p99_s"],
                                      units["sim_p99_s"])
        metrics["sim_p50_s"]["n"] = metrics["sim_p99_s"]["n"] = admitted
        metrics["slo_miss_frac"] = _exact(
            (summary["slo_violations"] + shed) / offered,
            units["slo_miss_frac"])
    layers = {}
    if traced is not None:
        untraced_s = statistics.median(rep["run_s"] for rep in reps)
        layers = dict(traced["layers"])
        layers["sim.us_per_event"] = statistics.median(
            rep["run_s"] * 1e6 / rep["events"] for rep in reps)
        layers["trace.overhead_ratio"] = traced["run_s"] / untraced_s
        if traced["unmapped"]:
            checks.append(
                f"layer map: unmapped families {traced['unmapped']}")
        if layers["other.share"] >= OTHER_SHARE_MAX:
            checks.append(f"layer map: other.share {layers['other.share']:.3f}"
                          f" >= {OTHER_SHARE_MAX}")
    return {
        "metrics": metrics,
        "layers": layers,
        "digest": first["digest"],
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_workload(workload: str, result: dict) -> None:
    print(f"== {workload}  digest {result['digest'][:16]}")
    for name, m in result["metrics"].items():
        print(f"  {name:22s} {m['value']:14.6g} {m['unit']:6s} "
              f"[{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']}")
    layers = result["layers"]
    if layers:
        print(f"  {'layer':18s} {'self_s [s]':>10s} {'share':>7s} "
              f"{'calls':>9s}")
        for name in [k[:-6] for k in layers if k.endswith(".share")]:
            print(f"  {name:18s} {layers[name + '.self_s']:10.4f} "
                  f"{layers[name + '.share']:7.3f} "
                  f"{layers[name + '.calls']:9d}")
        for name, value in layers.items():
            if not name.endswith((".self_s", ".share", ".calls")):
                print(f"  {name:42s} {value:14.6g} {unit_of(name)}")
    for check in result["checks"]:
        print(f"  CHECK FAILED: {check}")


def run_ladder(args: argparse.Namespace, spec: dict, known: list[str]) -> int:
    workloads = args.workloads.split(",") if args.workloads else known
    runs = measure(workloads, args.seed, reps=args.reps)
    results = {}
    for workload in workloads:
        result = summarize(runs[workload], spec)
        if result is None:
            print(f"== {workload}: every rep failed")
            return 1
        results[workload] = result
        print_workload(workload, result)
    out = Path(args.out or HERE / "out" / f"ladder-seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"seed": args.seed, "reps": args.reps, "workloads": results},
        indent=1))
    print(f"# wrote {out}")
    return 1 if any(r["checks"] for r in results.values()) else 0


def run_one(args: argparse.Namespace, spec: dict, bench: dict) -> int:
    runs = measure([args.workload], args.seed, seconds=args.seconds,
                   traced=bool(args.trace))
    result = summarize(runs[args.workload], spec)
    if result is None or (args.trace and not result["layers"]):
        return 1
    print_workload(args.workload, result)
    if args.trace:
        wanted = bench["per_layer"]
        values = result["layers"]
    else:
        wanted = bench["end_to_end"]
        values = {k: m["value"] for k, m in result["metrics"].items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = not result["checks"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Both sides' medians and quartiles, and a verdict per pair."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    worse = 0
    print(f"{'workload':14s} {'metric':20s} {'A median [q1,q3]':>30s} "
          f"{'B median [q1,q3]':>30s} {'delta':>8s}  verdict")
    for workload in [w for w in a if w in b]:
        ma, mb = a[workload]["metrics"], b[workload]["metrics"]
        for name in [n for n in ma if n in mb]:
            x, y = ma[name], mb[name]
            delta = (y["value"] - x["value"]) / x["value"] if x["value"] else (
                0.0 if y["value"] == x["value"] else float("inf"))
            meta = spec["end_to_end"][name]
            if meta["kind"] == "virtual":
                ok = abs(y["value"] - x["value"]) <= VIRTUAL_REL_TOL * abs(
                    x["value"])
                verdict = "same" if ok else "CHANGED"
            else:
                bound = meta["bound"]
                spread = max((m["q3"] - m["q1"]) / m["value"] for m in (x, y))
                if spread > bound:
                    verdict = f"unresolved (spread {spread:.1%} > {bound:.0%})"
                    ok = True
                elif delta > bound:
                    verdict, ok = f"WORSE (> {bound:.0%})", False
                else:
                    verdict, ok = f"within {bound:.0%}", True
            worse += not ok
            print(f"{workload:14s} {name:20s} "
                  f"{x['value']:12.6g} [{x['q1']:.4g},{x['q3']:.4g}] "
                  f"{y['value']:12.6g} [{y['q1']:.4g},{y['q3']:.4g}] "
                  f"{delta:+8.2%}  {verdict}")
        same = a[workload]["digest"] == b[workload]["digest"]
        worse += not same
        print(f"{workload:14s} {'summary digest':20s} "
              f"{'identical' if same else 'DIFFERENT'}")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=spec["defaults"]["seed"])
    parser.add_argument("--reps", type=int, default=spec["defaults"]["reps"])
    parser.add_argument("--workloads", help="comma-separated ladder subset")
    parser.add_argument("--out", help="ladder result file (JSON)")
    parser.add_argument("--workload", help="run one workload for --seconds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    bench = load_benchmark()
    known = [w["name"] for w in bench["workloads"]]
    asked = [args.workload] if args.workload else (
        args.workloads.split(",") if args.workloads else [])
    unknown = [w for w in asked if w not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    if args.workload:
        return run_one(args, spec, bench)
    return run_ladder(args, spec, known)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
