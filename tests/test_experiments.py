"""Tests for the experiment harness: config, runner, report, figure modules."""

from dataclasses import asdict

import pytest

from repro.autoscale import AutoscaleConfig
from repro.core.canary import CanaryPlatform
from repro.experiments import fig04, fig07, fig09, fig12
from repro.experiments.config import ERROR_RATE_SWEEP, ScenarioConfig
from repro.experiments.report import (
    FigureResult,
    format_table,
    pct_change,
    pct_reduction,
)
from repro.experiments.runner import mean_of, run_repeated, run_scenario


class TestScenarioConfig:
    def test_defaults(self):
        config = ScenarioConfig(workload="graph-bfs")
        assert config.functions_per_job == 100
        assert config.jobs == 1

    def test_with_(self):
        config = ScenarioConfig(workload="graph-bfs")
        changed = config.with_(error_rate=0.5)
        assert changed.error_rate == 0.5
        assert config.error_rate == 0.0  # original untouched

    def test_jobs_must_divide(self):
        with pytest.raises(ValueError):
            ScenarioConfig(workload="graph-bfs", num_functions=10, jobs=3)

    @pytest.mark.parametrize("count, nodes", [(4, 4), (5, 4), (1, 1)])
    def test_node_failures_may_not_kill_every_node(self, count, nodes):
        with pytest.raises(ValueError, match="none of the"):
            ScenarioConfig(node_failure_count=count, num_nodes=nodes)

    def test_node_failures_that_leave_a_node_are_accepted(self):
        ScenarioConfig(node_failure_count=3, num_nodes=4)
        # An autoscaled cluster grows past its initial nodes.
        ScenarioConfig(
            node_failure_count=4,
            num_nodes=4,
            autoscale=AutoscaleConfig(min_nodes=4, max_nodes=8),
        )

    @pytest.mark.parametrize(
        "setting",
        [
            {"node_failure_window": (5.0, 10.0)},
            {"node_failure_precursors": 2},
        ],
        ids=["window", "precursors"],
    )
    def test_node_failure_settings_need_node_failures(self, setting):
        with pytest.raises(ValueError, match="only with node failures"):
            ScenarioConfig(**setting)
        ScenarioConfig(node_failure_count=1, **setting)

    @pytest.mark.parametrize(
        "setting",
        [
            {"num_nodes": 0},
            {"error_rate": 1.5},
            {"error_rate": -0.1},
            {"refailure_rate": 1.5},
            {"checkpoint_interval": 0},
            {"node_failure_count": -1},
        ],
        ids=lambda setting: "-".join(f"{k}={v}" for k, v in setting.items()),
    )
    def test_out_of_range_settings_rejected(self, setting):
        (name,) = setting
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**setting)

    def test_error_rate_sweep_matches_paper(self):
        assert ERROR_RATE_SWEEP[0] == 0.01
        assert ERROR_RATE_SWEEP[-1] == 0.50


class TestRunner:
    def test_direct_construction_matches_run_scenario(self):
        # The examples/failure_drill.py scenario: a platform built directly
        # resolves the same defaults (shared spill under node failures) as
        # the runner does.
        scenario = ScenarioConfig(
            workload="dl-training",
            strategy="canary",
            error_rate=0.05,
            node_failure_count=1,
            node_failure_window=(20.0, 80.0),
        )
        platform = CanaryPlatform(scenario, seed=3)
        platform.submit_batch()
        platform.run()
        direct = platform.summary()
        assert asdict(direct) == asdict(run_scenario(scenario, 3))
        assert direct.mean_recovery_s == pytest.approx(15.27, abs=0.01)

    def test_run_scenario_summary(self):
        summary = run_scenario(
            ScenarioConfig(
                workload="graph-bfs",
                strategy="canary",
                error_rate=0.15,
                num_functions=20,
                num_nodes=4,
            ),
            seed=1,
        )
        assert summary.completed == 20
        # 4 includes a re-kill of an adopted replica that the loss dispatch
        # used to drop silently (the attempt kept computing on a FAILED
        # container); ownership-based dispatch records and recovers it.
        assert summary.failures == 4
        assert summary.strategy == "canary"

    def test_run_scenario_multi_job(self):
        summary = run_scenario(
            ScenarioConfig(
                workload="web-service",
                strategy="ideal",
                num_functions=40,
                jobs=4,
                num_nodes=2,
            )
        )
        assert summary.completed == 40

    def test_run_repeated_seeds(self):
        summaries = run_repeated(
            ScenarioConfig(
                workload="graph-bfs",
                strategy="retry",
                error_rate=0.2,
                num_functions=10,
                num_nodes=2,
            ),
            seeds=(0, 1, 2),
        )
        assert len(summaries) == 3
        assert {s.seed for s in summaries} == {0, 1, 2}

    def test_mean_of(self):
        summaries = run_repeated(
            ScenarioConfig(
                workload="graph-bfs",
                strategy="retry",
                error_rate=0.2,
                num_functions=10,
                num_nodes=2,
            ),
            seeds=(0, 1),
        )
        row = mean_of(summaries)
        assert row["runs"] == 2
        assert row["makespan_s"] == pytest.approx(
            (summaries[0].makespan_s + summaries[1].makespan_s) / 2
        )
        assert "makespan_rel_spread" in row

    def test_mean_of_empty_raises(self):
        with pytest.raises(ValueError):
            mean_of([])


class TestReport:
    def make_result(self):
        return FigureResult(
            figure="figX",
            title="demo",
            columns=("a", "b"),
            rows=[{"a": 1, "b": 2.5}, {"a": 2, "b": 0.001}],
            notes=["a note"],
        )

    def test_format_table_contains_everything(self):
        text = format_table(self.make_result())
        assert "figX" in text
        assert "a note" in text
        assert "2.50" in text
        assert "0.0010" in text

    def test_series_and_value(self):
        result = self.make_result()
        assert result.series(a=1) == [{"a": 1, "b": 2.5}]
        assert result.value("b", a=2) == 0.001
        with pytest.raises(KeyError):
            result.value("b", a=99)

    def test_pct_helpers(self):
        assert pct_change(110, 100) == pytest.approx(10.0)
        assert pct_reduction(80, 100) == pytest.approx(20.0)
        assert pct_change(1, 0) == 0.0


class TestFigureModulesSmoke:
    """Tiny-scale smoke runs of representative figure modules."""

    def test_fig04_shape(self):
        result = fig04.run(
            seeds=(0,),
            error_rates=(0.2,),
            workloads=("graph-bfs",),
            num_functions=20,
        )
        assert result.figure == "fig4"
        retry = result.value(
            "mean_recovery_s",
            workload="graph-bfs",
            strategy="retry",
            error_rate=0.2,
        )
        canary = result.value(
            "mean_recovery_s",
            workload="graph-bfs",
            strategy="canary",
            error_rate=0.2,
        )
        assert canary < retry
        assert result.notes

    def test_fig07_shape(self):
        result = fig07.run(
            seeds=(0,), error_rates=(0.25,), num_functions=20,
            workload="graph-bfs",
        )
        ideal = result.value("makespan_s", strategy="ideal", error_rate=0.0)
        retry = result.value("makespan_s", strategy="retry", error_rate=0.25)
        assert retry > ideal

    def test_fig09_shape(self):
        result = fig09.run(
            seeds=(0,), error_rates=(0.25,), num_functions=20,
            workload="graph-bfs",
        )
        ar = result.value(
            "cost_usd", replication="aggressive", error_rate=0.25
        )
        dr = result.value("cost_usd", replication="dynamic", error_rate=0.25)
        assert ar > dr

    def test_fig12_shape(self):
        result = fig12.run(
            seeds=(0,),
            node_counts=(1, 4),
            num_functions=200,
            batch_jobs=2,
        )
        for strategy in ("ideal", "retry", "canary"):
            small = result.value("makespan_s", strategy=strategy, nodes=1)
            large = result.value("makespan_s", strategy=strategy, nodes=4)
            assert small > large
