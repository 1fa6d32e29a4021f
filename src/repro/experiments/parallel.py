"""Parallel scenario execution: fan independent cells out over processes.

Every figure sweep is a grid of (workload × strategy × error-rate × seed)
cells, and each cell is one independent, deterministic, single-threaded
simulation.  This module runs a flat list of such cells with
``ProcessPoolExecutor.map`` and returns the summaries **in cell order**, so
the parallel path is byte-for-byte interchangeable with the serial one:

>>> cells = [(scenario_a, 0), (scenario_a, 1), (scenario_b, 0)]
>>> summaries = run_cells(cells, jobs=4)   # == [run_scenario(s, x) ...]

Design points:

* **Spawn-safe workers.**  Workers receive only picklable
  ``(ScenarioConfig, seed)`` pairs and rebuild the full platform inside the
  child via :func:`repro.experiments.runner.run_scenario`; nothing depends
  on fork-inherited state, so the pool works identically under the
  ``spawn`` start method (macOS / Windows default).
* **Chunked, ordered map.**  ``map`` ships cells in chunks of about
  ``cells / (jobs × 4)``, so each round-trip amortizes pickle/IPC overhead
  while stragglers still load-balance, and yields results in input order
  whatever order the chunks finish in.
* **One error contract.**  A cell that raises surfaces as
  :class:`CellExecutionError` naming the cell, in-process or in a worker;
  a worker that dies surfaces as ``BrokenProcessPool``.
* **Graceful fallback.**  ``jobs=1``, a single cell, or an unavailable pool
  (restricted environments without working process spawning) all fall back
  to plain in-process execution with identical results.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import Callable, Mapping, Optional, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.report import FigureResult
from repro.experiments.runner import mean_of, run_scenario
from repro.metrics.summary import RunSummary

#: One experiment cell: a fully specified scenario plus the seed to run it at.
Cell = tuple[ScenarioConfig, int]

#: Chunks per worker; >1 keeps stragglers from idling the pool.
_CHUNKS_PER_JOB = 4

#: Hard cap on workers; figure grids rarely benefit beyond this.
_MAX_JOBS = 32


class CellExecutionError(RuntimeError):
    """A worker failed while running one cell; carries which cell and why."""

    def __init__(self, index: int, cell: Cell, cause: BaseException) -> None:
        scenario, seed = cell
        super().__init__(
            f"cell #{index} (workload={scenario.workload!r}, "
            f"strategy={scenario.strategy!r}, seed={seed}) failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.index = index
        self.cell = cell
        self.cause = cause  # survives pool transport; __cause__ gets
        self.__cause__ = cause  # replaced by _RemoteTraceback in the parent

    def __reduce__(self):
        # Default exception pickling replays __init__ with the formatted
        # message only; replay the real constructor args so the error
        # survives the worker -> parent IPC round-trip intact.
        return (self.__class__, (self.index, self.cell, self.cause))


def default_jobs() -> int:
    """Worker count when ``jobs`` is unspecified: one per available core."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1
    return max(1, min(cores, _MAX_JOBS))


def _run_cell(
    index: int,
    cell: Cell,
    runner: Callable[[ScenarioConfig, int], RunSummary],
) -> RunSummary:
    """Run one cell, naming it in any error it raises."""
    try:
        return runner(*cell)
    except Exception as exc:
        raise CellExecutionError(index, cell, exc) from exc


def run_cells(
    cells: Sequence[Cell],
    *,
    jobs: Optional[int] = None,
    runner: Callable[[ScenarioConfig, int], RunSummary] = run_scenario,
) -> list[RunSummary]:
    """Run every ``(scenario, seed)`` cell and return summaries in order.

    Args:
        cells: Flat list of independent cells.
        jobs: Worker processes.  ``None`` uses one per available core
            (overridable via ``REPRO_JOBS``); ``1`` runs in-process.
        runner: Cell executor, overridable for tests.  Must be a picklable
            module-level callable when ``jobs > 1``.

    Raises:
        CellExecutionError: A cell raised (the original exception is
            chained as ``__cause__``).
        BrokenProcessPool: A worker process died (e.g. killed by the OS).
    """
    cells = list(cells)
    args = (range(len(cells)), cells, repeat(runner))
    n_jobs = default_jobs() if jobs is None else max(1, int(jobs))
    n_jobs = min(n_jobs, len(cells), _MAX_JOBS)
    if n_jobs > 1:
        try:
            executor = ProcessPoolExecutor(max_workers=n_jobs)
        except (OSError, ValueError, PermissionError):
            # No process pool in this environment (sandboxed /dev/shm,
            # rlimits): degrade to in-process execution rather than
            # failing the sweep.
            n_jobs = 1
    if n_jobs <= 1:
        return list(map(_run_cell, *args))
    chunksize = math.ceil(len(cells) / (n_jobs * _CHUNKS_PER_JOB))
    try:
        return list(executor.map(_run_cell, *args, chunksize=chunksize))
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def run_sweep(
    scenarios: Sequence[ScenarioConfig],
    seeds: Sequence[int],
    *,
    jobs: Optional[int] = None,
) -> list[list[RunSummary]]:
    """Run every scenario at every seed; one summary list per scenario.

    This is the batched counterpart of calling
    :func:`repro.experiments.runner.run_repeated` per scenario: the full
    (scenario × seed) grid is flattened into one cell list so the pool sees
    every cell at once, then regrouped in scenario order.
    """
    seeds = list(seeds)
    cells: list[Cell] = [
        (scenario, seed) for scenario in scenarios for seed in seeds
    ]
    flat = run_cells(cells, jobs=jobs)
    n = len(seeds)
    return [flat[i * n:(i + 1) * n] for i in range(len(scenarios))]


def sweep_table(
    figure: str,
    title: str,
    cells: Sequence[tuple[dict, ScenarioConfig]],
    metrics: Mapping[str, str],
    *,
    seeds: Sequence[int],
    jobs: Optional[int] = None,
    placement: Optional[str] = None,
) -> FigureResult:
    """Run a figure's sweep and tabulate the per-seed means.

    Each cell pairs a key row (the plotted coordinates, e.g. ``{"strategy":
    "retry", "error_rate": 0.1}``) with the scenario that produces it.
    ``metrics`` maps an output column to a :func:`mean_of` field.  Each row
    is the key row plus the mapped means; the columns are the key columns,
    then the metric columns.

    ``placement`` overrides every scenario's S39 placement policy — a
    deliberate behaviour change: it re-runs a whole figure under a
    different scheduling objective.
    """
    scenarios = [scenario for _, scenario in cells]
    if placement is not None:
        scenarios = [s.with_(placement=placement) for s in scenarios]
    rows = []
    for (key, _), summaries in zip(
        cells, run_sweep(scenarios, seeds, jobs=jobs)
    ):
        means = mean_of(summaries)
        rows.append(
            {**key, **{column: means[name] for column, name in metrics.items()}}
        )
    key_columns = list(cells[0][0]) if cells else []
    return FigureResult(figure, title, (*key_columns, *metrics), rows)
