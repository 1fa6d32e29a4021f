"""Tests for the parallel scenario-execution engine.

The load-bearing property is determinism: fanning a sweep out over worker
processes must return *byte-identical* summaries, in the same order, as
running the same cells serially.  Everything else (error propagation,
fallbacks) supports that guarantee.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import (
    CellExecutionError,
    default_jobs,
    run_cells,
    run_sweep,
)
from repro.experiments.runner import run_repeated, run_scenario


def _fig06_style_cells(seeds=(0, 1)) -> list[parallel.Cell]:
    """A miniature fig06 grid: workloads x strategies x error rates x seeds."""
    scenarios = [
        ScenarioConfig(
            workload=workload,
            strategy=strategy,
            error_rate=error_rate,
            num_functions=10,
        )
        for workload in ("dl-training", "compression")
        for strategy in ("retry", "canary-checkpoint-only", "canary")
        for error_rate in (0.05, 0.25)
    ]
    return [(scenario, seed) for scenario in scenarios for seed in seeds]


class TestDeterminism:
    def test_parallel_matches_serial_byte_identical(self):
        cells = _fig06_style_cells()
        serial = run_cells(cells, jobs=1)
        fanned = run_cells(cells, jobs=4)
        assert len(fanned) == len(serial) == len(cells)
        for row_serial, row_fanned in zip(serial, fanned):
            assert row_fanned == row_serial
            assert pickle.dumps(row_fanned) == pickle.dumps(row_serial)

    def test_spawn_workers_match_serial(self):
        # Workers carry no fork-inherited state, so a fresh interpreter
        # whose default start method is spawn fans out to the same rows.
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        script = textwrap.dedent("""
            import multiprocessing

            from repro.experiments.config import ScenarioConfig
            from repro.experiments.parallel import run_cells

            if __name__ == "__main__":
                multiprocessing.set_start_method("spawn")
                cells = [
                    (ScenarioConfig(workload=workload, strategy=strategy,
                                    error_rate=0.05, num_functions=10), 0)
                    for workload in ("dl-training", "compression")
                    for strategy in ("retry", "canary")
                ]
                assert run_cells(cells, jobs=2) == run_cells(cells, jobs=1)
                print("spawn ok")
        """)
        src = str(Path(parallel.__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "spawn ok"

    def test_results_are_cell_ordered(self):
        scenario = ScenarioConfig(workload="dl-training", num_functions=10)
        cells = [(scenario, seed) for seed in (5, 3, 9, 0)]
        out = run_cells(cells, jobs=2)
        assert [s.seed for s in out] == [5, 3, 9, 0]

    def test_run_repeated_parallel_matches_serial(self):
        scenario = ScenarioConfig(
            workload="graph-bfs", strategy="canary", error_rate=0.15,
            num_functions=10,
        )
        assert run_repeated(scenario, range(3), jobs=2) == run_repeated(
            scenario, range(3)
        )


class TestRunSweep:
    def test_groups_per_scenario_in_order(self):
        scenarios = [
            ScenarioConfig(workload="dl-training", strategy=s,
                           error_rate=0.15, num_functions=10)
            for s in ("retry", "canary")
        ]
        grouped = run_sweep(scenarios, seeds=(0, 1, 2), jobs=2)
        assert [len(g) for g in grouped] == [3, 3]
        for scenario, group in zip(scenarios, grouped):
            assert [s.seed for s in group] == [0, 1, 2]
            assert all(s.strategy == str(scenario.strategy) for s in group)
            assert group == run_repeated(scenario, (0, 1, 2))

    def test_empty_sweep(self):
        assert run_sweep([], seeds=(0, 1)) == []
        assert run_cells([]) == []


def _failing_runner(scenario: ScenarioConfig, seed: int):
    if seed == 2:
        raise ValueError(f"injected failure at seed {seed}")
    return run_scenario(scenario, seed)


def _dying_runner(scenario: ScenarioConfig, seed: int):
    os._exit(13)  # simulate a hard worker crash, not a Python exception


class TestErrorPropagation:
    def test_worker_exception_carries_cell_context(self):
        scenario = ScenarioConfig(workload="dl-training", num_functions=10)
        cells = [(scenario, seed) for seed in range(4)]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, jobs=2, runner=_failing_runner)
        assert "seed=2" in str(excinfo.value)
        assert excinfo.value.index == 2
        assert isinstance(excinfo.value.cause, ValueError)

    def test_serial_path_raises_the_same_error(self):
        scenario = ScenarioConfig(workload="dl-training", num_functions=10)
        cells = [(scenario, seed) for seed in range(4)]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, jobs=1, runner=_failing_runner)
        assert excinfo.value.index == 2
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_crashed_worker_surfaces_as_broken_pool(self):
        scenario = ScenarioConfig(workload="dl-training", num_functions=10)
        cells = [(scenario, seed) for seed in range(2)]
        with pytest.raises(BrokenProcessPool):
            run_cells(cells, jobs=2, runner=_dying_runner)

    def test_invalid_workload_fails_cleanly_in_workers(self):
        bad = ScenarioConfig(workload="no-such-workload", num_functions=10)
        with pytest.raises(CellExecutionError):
            run_cells([(bad, 0), (bad, 1)], jobs=2)

    def test_run_repeated_raises_cell_error_in_process(self):
        bad = ScenarioConfig(workload="no-such-workload")
        with pytest.raises(CellExecutionError) as excinfo:
            run_repeated(bad, (0,))
        assert excinfo.value.index == 0


class TestFallbacks:
    def test_jobs_1_never_builds_a_pool(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("pool built despite jobs=1")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", explode)
        scenario = ScenarioConfig(workload="dl-training", num_functions=10)
        out = run_cells([(scenario, 0)], jobs=1)
        assert out == [run_scenario(scenario, 0)]

    def test_single_cell_stays_in_process(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("pool built for a single cell")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", explode)
        scenario = ScenarioConfig(workload="dl-training", num_functions=10)
        assert run_cells([(scenario, 7)], jobs=8)[0].seed == 7

    def test_unavailable_pool_falls_back_to_serial(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", unavailable)
        scenario = ScenarioConfig(workload="dl-training", num_functions=10)
        cells = [(scenario, seed) for seed in range(3)]
        assert run_cells(cells, jobs=4) == run_cells(cells, jobs=1)

    def test_default_jobs_honors_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert default_jobs() >= 1
