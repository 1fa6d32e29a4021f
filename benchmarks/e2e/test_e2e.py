"""Consistency checks of the end-to-end ladder (no simulation runs).

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e.py``
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import layers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: ``label="x"``, ``label=f"x:..."`` and the ``label = label or f"x:..."``
#: default.
LABEL = re.compile(r"""label(?:=| = label or )f?["']([a-z][a-z-]*)""")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_event_family_in_src_maps_to_a_layer():
    families = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        families.update(LABEL.findall(path.read_text()))
    assert {"xfer", "flow-end", "hb", "place-backoff"} <= families
    unmapped = sorted(f for f in families if layers.layer_of(f) == "other")
    assert unmapped == []


def test_layer_of_matches_prefix_patterns():
    assert layers.layer_of(layers.family_of("xfer:ckpt:f1")) == "network"
    assert layers.layer_of("chaos-zombie-kill") == "faults"
    assert layers.layer_of("autoscale-boot") == "autoscale"
    assert layers.layer_of("rr-restart") == "strategies"
    assert layers.layer_of("state-x") == "other"
    assert layers.layer_of("") == "other"


def test_self_time_subtracts_children_and_shares_sum_to_one():
    tracer = layers.HostTracer()

    def leaf():
        return sum(range(2000))

    traced_leaf = tracer.wrap(leaf, "Leaf.call", "storage")

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = tracer.wrap(middle, "Middle.call", "checkpoint")
    run = tracer.wrap(lambda: traced_middle(), "run", "sim")
    tracer.wrap(leaf, "Leaf.call", "storage")()  # outside the run subtree
    run()
    times = tracer.layer_times()
    rows = times["layers"]
    assert rows["storage"]["calls"] == 2
    assert rows["checkpoint"]["calls"] == 1
    assert rows["sim"]["calls"] == 1
    assert all(row["self_s"] >= 0 for row in rows.values())
    assert abs(sum(row["share"] for row in rows.values()) - 1) < 1e-9
    assert times["counts"] == {"run": 1, "Middle.call": 1, "Leaf.call": 2}


def test_names_and_units_are_consistent():
    benchmark = _benchmark()
    spec = bench.load_spec()
    from workloads import WORKLOADS

    names = [w["name"] for w in benchmark["workloads"]]
    assert names == list(WORKLOADS)
    e2e = spec["end_to_end"]
    for metric in benchmark["end_to_end"]:
        meta = e2e[metric["name"]]
        assert metric["unit"] == meta["unit"]
        assert 0 < metric["bound"] <= 0.25
        assert metric["bound"] == meta.get("bound", metric["bound"])
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])
    known_layers = set(layers.LAYERS) | {"trace"}
    for metric in benchmark["per_layer"]:
        assert metric["name"].rsplit(".", 1)[0] in known_layers
        assert metric["unit"] == bench.unit_of(metric["name"])
    every = (names + list(e2e)
             + [m["name"] for m in benchmark["per_layer"]]
             + [m for move in spec["moves"] for m in move["layer_metrics"]])
    assert all(NAME.fullmatch(n) for n in every)
    all_names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in benchmark[key]]
    assert len(all_names) == len(set(all_names))
    for move in spec["moves"]:
        assert set(move["end_to_end"]) <= set(e2e)
        assert set(move["workloads"] + move["unchanged"]) <= set(names)
        for metric in move["layer_metrics"]:
            assert metric.rsplit(".", 1)[0] in known_layers
