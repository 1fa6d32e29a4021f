"""Runner-scaling microbenchmark: event throughput + parallel sweep speedup.

Two regression-visible numbers, written to ``BENCH_runner.json`` at the
repo root on every run:

* ``engine.events_per_sec`` — single-core throughput of the
  discrete-event engine's drain loop on a pre-drawn event schedule.  The
  delays are drawn vectorized up front (one numpy call), so the number
  measures the *engine* — pop, dispatch, bookkeeping — not numpy's
  ~1.3µs-per-call scalar sampling.  Full runs assert the
  ``MIN_EVENTS_PER_SEC`` floor.  A cancellation-heavy pass parks about
  one dead event per fired event 50-99 s ahead (timeouts and standby
  teardowns cancel roughly as many events as they fire), so it exercises
  the engine's rebuild of a heap whose dead entries outnumber its live
  ones.
* ``sweep`` — wall-clock of a reduced fig06-style grid executed serially
  vs fanned out over ``--jobs`` worker processes (default: one per core),
  and the resulting speedup.  Full runs use cells of about 100 ms, so the
  fanned time measures the cells rather than starting the workers.  The
  serial baseline is recorded in the same run so the two numbers are
  always comparable.

Smoke mode (``BENCH_SMOKE=1``, used by CI) shrinks the grid and the event
counts so the whole file runs in seconds; the JSON then carries
``"smoke": true`` so dashboards don't mix scales.  The ≥2× speedup
assertion only fires on full runs with at least 4 usable cores — a
single-core runner cannot speed anything up, it can only prove the
parallel path returns identical results, so its JSON row carries
``"speedup": null`` with a ``"single-core"`` note instead of a
misleading sub-1× ratio.
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import default_jobs, run_cells
from repro.sim.engine import Simulator

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_runner.json"
SMOKE = os.environ.get("BENCH_SMOKE", "").lower() in ("1", "true", "yes")


#: Acceptance bar for the single-core engine drain (full runs only).
MIN_EVENTS_PER_SEC = 500_000


def drain_prescheduled(n_events: int) -> float:
    """Seconds to fire *n_events* through a self-refilling event loop.

    The delay schedule is pre-drawn in one vectorized numpy pass and
    converted to plain floats; each callback then only reads the next
    delay, schedules, and returns — which is exactly the engine-dominated
    profile of a real simulated run (components precompute durations; the
    engine pays pop + dispatch).  The GC is paused for the timed region
    so the number tracks the engine, not collector pauses over the ~1M
    short-lived Event objects the workload churns through.
    """
    sim = Simulator(seed=0)
    delays = sim.rng.stream("bench").uniform(
        0.01, 1.0, size=n_events + 64
    ).tolist()
    cursor = [0]

    def tick() -> None:
        if sim.pending < 64 and sim.events_processed < n_events:
            i = cursor[0]
            cursor[0] = i + 8
            for k in range(8):
                sim.call_in(delays[i + k], tick)

    for j in range(64):
        sim.call_in(delays[j], tick)
    cursor[0] = 64
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        sim.run(max_events=n_events)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    assert sim.events_processed == n_events
    return elapsed


def drain_events_with_cancellation(n_events: int) -> float:
    """Like :func:`drain_prescheduled` but half the scheduled work gets
    cancelled 50-99 s ahead of the clock: dead entries pile up faster than
    they surface, and the engine's rebuild keeps the heap bounded."""
    sim = Simulator(seed=1)
    rng = sim.rng.stream("bench-cancel")
    doomed: list = []

    def tick() -> None:
        if sim.pending < 128 and sim.events_processed < n_events:
            for _ in range(8):
                sim.call_in(float(rng.uniform(0.01, 1.0)), tick)
                # Shadow "timeout" events: scheduled far out, always cancelled.
                doomed.append(sim.call_in(float(rng.uniform(50.0, 99.0)),
                                          tick))
            while doomed:
                doomed.pop().cancel()

    for _ in range(64):
        sim.call_in(float(rng.uniform(0.01, 1.0)), tick)
    start = time.perf_counter()
    sim.run(max_events=n_events)
    elapsed = time.perf_counter() - start
    assert sim.events_processed == n_events
    return elapsed


def _fig06_grid(num_functions: int, seeds: range) -> list:
    scenarios = [
        ScenarioConfig(
            workload=workload,
            strategy=strategy,
            error_rate=error_rate,
            num_functions=num_functions,
        )
        for workload in ("dl-training", "compression", "graph-bfs")
        for strategy in ("retry", "canary-checkpoint-only", "canary")
        for error_rate in (0.05, 0.15, 0.50)
    ]
    return [(scenario, seed) for scenario in scenarios for seed in seeds]


def test_bench_runner_scaling(jobs):
    n_events = 50_000 if SMOKE else 1_000_000
    cells = _fig06_grid(
        num_functions=10 if SMOKE else 500,
        seeds=range(2),
    )
    fan_jobs = jobs if jobs is not None else default_jobs()

    # Best-of-3: shared runners jitter by 10-20%; the fastest run is the
    # one least perturbed by neighbours and the stable engine metric.
    reps = 1 if SMOKE else 3
    plain_s = min(drain_prescheduled(n_events) for _ in range(reps))
    cancel_s = drain_events_with_cancellation(n_events)

    serial_start = time.perf_counter()
    serial = run_cells(cells, jobs=1)
    serial_s = time.perf_counter() - serial_start

    parallel_start = time.perf_counter()
    fanned = run_cells(cells, jobs=fan_jobs)
    parallel_s = time.perf_counter() - parallel_start

    assert fanned == serial  # the speedup must not change a single row

    cores = default_jobs()
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    sweep = {
        "cells": len(cells),
        "jobs": fan_jobs,
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "speedup": round(speedup, 2),
    }
    if cores < 2:
        # A fanned run on a single core measures process overhead, not
        # parallelism; recording its ratio would look like a regression
        # (e.g. "0.76x").  Flag the row instead of publishing it.
        sweep["speedup"] = None
        sweep["note"] = "single-core"
    record = {
        "smoke": SMOKE,
        "cores": cores,
        "engine": {
            "events": n_events,
            "events_per_sec": round(n_events / plain_s),
            "events_per_sec_cancel_heavy": round(n_events / cancel_s),
        },
        "sweep": sweep,
    }
    print()
    print(json.dumps(record, indent=2))

    assert record["engine"]["events_per_sec"] > 0
    if not SMOKE:
        assert record["engine"]["events_per_sec"] >= MIN_EVENTS_PER_SEC, (
            record["engine"]
        )
    if not SMOKE and cores >= 4:
        # The acceptance bar: a 4-core sweep must at least halve wall-clock.
        assert speedup >= 2.0, record["sweep"]
    # Written only after the gates: a failing run records nothing.
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
