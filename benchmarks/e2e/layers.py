"""Host-time layer attribution, measured from outside the program.

:class:`HostTracer` wraps public functions of each layer at runtime (class
attributes are replaced inside the benchmark's own child process; nothing
under ``src/`` changes) and records one span per call: a name, a layer,
``perf_counter_ns`` start and end, and the index of the enclosing span.

* **Root spans.**  Every event callback handed to ``Simulator.call_at`` /
  ``call_in`` is wrapped and named by its label family (the label prefix
  before ``:``), which :data:`FAMILIES` maps to a layer.  The scheduling
  call itself is a ``sim`` span, so engine bookkeeping done on behalf of a
  layer is charged to the engine.
* **Nested spans.**  The public entry points in :data:`CALLS`.

A layer's self time is its span time minus the time its child spans cover.
Everything inside ``CanaryPlatform.run`` (itself a ``sim`` span) is in one
tree, so the layer shares of a traced run sum to 1.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Callable

#: Event-label family -> layer.  A trailing ``*`` matches a prefix.
#: ``test_e2e.py`` checks that every ``label=`` prefix in ``src/repro`` is
#: covered, so a new event family cannot silently land in ``other``.
FAMILIES: dict[str, tuple[str, ...]] = {
    "network": ("flow-end", "xfer"),
    "core.execution": (
        "setup", "restore", "finish", "state", "timeout", "kill", "backoff",
        "recovered",
    ),
    "checkpoint": ("ckpt", "flush"),
    "faas.controller": ("place-backoff", "controller-throttle", "reuse-reclaim"),
    "faas.invoker": ("pull", "launch", "ready"),
    "strategies": (
        "canary", "wait-fallback", "retry", "rr-*", "as-*", "kill-standby",
        "clone-*", "ideal",
    ),
    "detection": ("hb", "suspect", "confirm", "detect-notify"),
    "faults": ("node-failure", "precursor", "chaos-*"),
    "traffic": ("traffic", "job-arrival"),
    "autoscale": ("autoscale-*",),
    "adaptive": ("adaptive-epoch",),
    "prediction": ("mitigator-tick",),
    # Emitted only by the standalone ShardProgram scenario, which no
    # ladder workload runs.
    "sharded": ("msg", "arrival", "replica"),
}

#: Layer -> (module, class, public methods) wrapped as nested spans.
#: Methods are wrapped on the class and on every subclass that overrides
#: them, so strategy and policy implementations are all covered.
CALLS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    "network": ((
        "repro.network.fabric", "FlowNetwork",
        ("write_checkpoint", "fetch_checkpoint", "flush_copy", "image_pull",
         "transfer", "fail_endpoint", "set_link_capacity", "node_pressure"),
    ),),
    "core.execution": (
        ("repro.core.execution", "FunctionExecution",
         ("submit", "begin_attempt", "handle_container_loss", "migrate")),
        ("repro.core.canary", "CanaryPlatform", ("submit_job",)),
    ),
    "checkpoint": ((
        "repro.checkpoint.module", "CheckpointingModule",
        ("record_state", "record_state_async", "latest", "restore_time",
         "on_node_failure"),
    ),),
    "storage": (
        ("repro.storage.router", "CheckpointStorageRouter",
         ("write", "read_time", "delete")),
        ("repro.storage.kvstore", "KeyValueStore", ("put", "get", "delete")),
    ),
    "faas.controller": ((
        "repro.faas.controller", "FaaSController",
        ("submit", "kick", "terminate", "kill_container"),
    ),),
    "faas.invoker": ((
        "repro.faas.invoker", "Invoker", ("cold_start", "abort_cold_start"),
    ),),
    "replication": ((
        "repro.replication.module", "ReplicationModule",
        ("reconcile", "register_job", "complete_job"),
    ),),
    "strategies": ((
        "repro.strategies.base", "RecoveryStrategy",
        ("launch_function", "on_failure", "on_sibling_loss",
         "on_function_complete", "after_detection"),
    ),),
    "policies": ((
        "repro.policies.base", "PlacementPolicy",
        ("select_node", "select_replica_node"),
    ),),
    "detection": ((
        "repro.detection.monitor", "DetectionModule",
        ("suspicion_score", "notify_after_detection"),
    ),),
    "autoscale": ((
        "repro.autoscale.admission", "AdmissionController", ("admit",),
    ),),
}

#: Every layer, in report order; ``sim`` is the engine, ``other`` holds
#: callbacks whose family is not in :data:`FAMILIES`.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(("sim", *FAMILIES, *CALLS, "other")))


def family_of(label: str) -> str:
    return label.split(":", 1)[0]


def layer_of(family: str) -> str:
    """The layer a label family belongs to (``other`` when unmapped)."""
    for layer, patterns in FAMILIES.items():
        for pattern in patterns:
            if pattern.endswith("*"):
                if family.startswith(pattern[:-1]):
                    return layer
            elif family == pattern:
                return layer
    return "other"


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for klass in found:
        found.extend(s for s in klass.__subclasses__() if s not in found)
    return found


class HostTracer:
    """In-memory host-time span recorder.

    Spans live in parallel ``array`` columns (a traced run records millions
    of spans); ``keys`` interns each ``(name, layer)`` pair.
    """

    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []
        self._key_index: dict[tuple[str, str], int] = {}
        self.key = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = [-1]
        #: Keys of event-callback spans (the rest are call spans).
        self._callbacks: set[int] = set()

    def _intern(self, name: str, layer: str) -> int:
        pair = (name, layer)
        code = self._key_index.get(pair)
        if code is None:
            code = self._key_index[pair] = len(self.keys)
            self.keys.append(pair)
        return code

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """Return *fn* recording one span per call."""
        code = self._intern(name, layer)
        key, start, end, parent = self.key, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(key)
            key.append(code)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the engine's scheduling calls and every layer's public calls."""
        from repro.core.canary import CanaryPlatform
        from repro.sim.engine import Simulator

        wrap = self.wrap
        named: dict[str, tuple[str, str]] = {}

        def scheduling(method: Callable) -> Callable:
            timed = wrap(method, method.__name__, "sim")

            def schedule(self_, when, callback, *, label="", **kwargs):
                family = family_of(label)
                pair = named.get(family)
                if pair is None:
                    pair = named[family] = (family, layer_of(family))
                    self._callbacks.add(self._intern(*pair))
                return timed(
                    self_, when, wrap(callback, *pair), label=label, **kwargs
                )

            return schedule

        Simulator.call_at = scheduling(Simulator.call_at)
        Simulator.call_in = scheduling(Simulator.call_in)
        CanaryPlatform.run = wrap(CanaryPlatform.run, "run", "sim")
        for layer, targets in CALLS.items():
            for module, cls_name, methods in targets:
                base = getattr(importlib.import_module(module), cls_name)
                for cls in _subclasses(base):
                    for method in methods:
                        fn = cls.__dict__.get(method)
                        if fn is not None:
                            setattr(cls, method, wrap(
                                fn, f"{cls.__name__}.{method}", layer
                            ))

    def run_span(self) -> tuple[int, int]:
        """``[first, last)`` span indices of the (single) platform run."""
        run_code = self._key_index[("run", "sim")]
        first = self.key.index(run_code)
        stop = self.end[first]
        last = first + 1
        while last < len(self.key) and self.start[last] < stop:
            last += 1
        return first, last

    def write_jsonl(self, path: Path) -> None:
        """One header line with the ``(name, layer)`` keys, then one
        ``[key, start_ns, end_ns, parent]`` line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"keys": self.keys}) + "\n")
            for row in zip(self.key, self.start, self.end, self.parent):
                out.write(json.dumps(row) + "\n")

    def layer_times(self) -> dict:
        """Per-layer self seconds, share of the run and call count.

        Aggregates only the run's subtree.  ``counts`` holds spans per name
        (callbacks are named by label family, calls by ``Class.method``)
        and ``unmapped`` the callback families that fell into ``other``.
        """
        first, last = self.run_span()
        key, start, end, parent = self.key, self.start, self.end, self.parent
        self_ns = [0] * (last - first)
        for i in range(first, last):
            duration = end[i] - start[i]
            self_ns[i - first] += duration
            p = parent[i]
            if p >= first:
                self_ns[p - first] -= duration
        layers = {
            layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS
        }
        counts: dict[str, int] = {}
        for offset, ns in enumerate(self_ns):
            name, layer = self.keys[key[first + offset]]
            row = layers[layer]
            row["self_s"] += ns / 1e9
            row["calls"] += 1
            counts[name] = counts.get(name, 0) + 1
        run_s = (end[first] - start[first]) / 1e9
        for row in layers.values():
            row["share"] = row["self_s"] / run_s
        unmapped = sorted(
            self.keys[code][0] or "(unlabelled)"
            for code in self._callbacks
            if self.keys[code][1] == "other"
        )
        return {
            "run_s": run_s, "layers": layers, "counts": counts,
            "unmapped": unmapped,
        }
