"""Tests for the canary-sim CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import FIGURES
from repro.experiments.claims import BENCH
from repro.experiments.report import FigureResult


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "dl-training"
        assert args.strategy == "canary"
        assert args.error_rate == 0.15

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "bogus"])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "bogus"])

    def test_network_defaults_off(self):
        args = build_parser().parse_args(["run"])
        assert args.network == "off"

    def test_network_preset_accepted(self):
        args = build_parser().parse_args(["run", "--network", "10gbe"])
        assert args.network == "10gbe"

    def test_unknown_network_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--network", "infiniband"])

    def test_topology_defaults(self):
        args = build_parser().parse_args(["topology"])
        assert args.nodes == 16
        assert args.racks == 4


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("dl-training", "web-service", "spark-mining",
                     "compression", "graph-bfs"):
            assert name in out

    def test_strategies_lists_all(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("ideal", "retry", "canary", "request-replication",
                     "active-standby", "canary-sla"):
            assert name in out

    def test_run_human_readable(self, capsys):
        code = main(
            [
                "run",
                "--workload", "graph-bfs",
                "--strategy", "canary",
                "--functions", "20",
                "--nodes", "4",
                "--error-rate", "0.2",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "20/20 completed" in out
        assert "$" in out

    def test_clones_with_non_cloning_strategy_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "run",
                    "--workload", "graph-bfs",
                    "--strategy", "canary",
                    "--functions", "20",
                    "--clones", "3",
                    "--json",
                ]
            )
        assert exit_info.value.code != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
        assert "'canary'" in captured.err

    def test_node_bounds_without_autoscale_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "traffic",
                    "--workload", "micro-python",
                    "--min-nodes", "1",
                    "--max-nodes", "2",
                    "--json",
                ]
            )
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--autoscale" in captured.err

    def test_admit_burst_without_admit_rate_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "traffic",
                    "--workload", "micro-python",
                    "--shed-depth", "8",
                    "--admit-burst", "3",
                    "--json",
                ]
            )
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--admit-rate" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--nodes", "0"], "num_nodes"),
            (["run", "--error-rate", "1.5"], "error_rate"),
            (["run", "--checkpoint-interval", "0"], "checkpoint_interval"),
            (["run", "--node-failures", "-1"], "node_failure_count"),
            (["topology", "--racks", "0"], "num_racks"),
            (["topology", "--nodes", "0"], "num_nodes"),
            (["figure", "fig7", "--fast", "--jobs", "0"], "--jobs"),
        ],
        ids=["nodes", "error-rate", "checkpoint-interval", "node-failures",
             "racks", "topology-nodes", "figure-jobs"],
    )
    def test_out_of_range_values_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_node_failures_on_every_node_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--nodes", "4", "--node-failures", "4", "--json"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "none of the 4 nodes" in captured.err

    def test_autoscale_accepts_failures_on_every_initial_node(self, capsys):
        code = main(
            [
                "traffic",
                "--workload", "micro-python",
                "--nodes", "4",
                "--node-failures", "4",
                "--autoscale",
                "--tenants", "1",
                "--duration", "5",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["invocations_offered"] > 0

    def test_autoscale_bounds_default_to_autoscale_config(self, capsys):
        argv = [
            "traffic",
            "--workload", "micro-python",
            "--tenants", "1",
            "--duration", "5",
            "--autoscale",
            "--json",
        ]
        assert main(argv) == 0
        defaulted = capsys.readouterr().out
        assert main(argv + ["--min-nodes", "4", "--max-nodes", "16"]) == 0
        assert capsys.readouterr().out == defaulted

    def test_run_json(self, capsys):
        code = main(
            [
                "run",
                "--workload", "graph-bfs",
                "--strategy", "retry",
                "--functions", "10",
                "--nodes", "2",
                "--error-rate", "0.2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "retry"
        assert payload["completed"] == 10
        assert payload["failures"] == 2

    def test_run_with_node_failures(self, capsys):
        code = main(
            [
                "run",
                "--workload", "graph-bfs",
                "--functions", "20",
                "--nodes", "4",
                "--error-rate", "0.1",
                "--node-failures", "1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 20

    def test_tiers_lists_hierarchy(self, capsys):
        assert main(["tiers"]) == 0
        out = capsys.readouterr().out
        for name in ("kv", "pmem", "ramdisk", "nfs", "s3"):
            assert name in out
        assert "GiB" in out

    def test_topology_lists_racks_and_presets(self, capsys):
        assert main(["topology", "--nodes", "8", "--racks", "2"]) == 0
        out = capsys.readouterr().out
        assert "rack-0: node-00 node-02 node-04 node-06" in out
        assert "rack-1: node-01 node-03 node-05 node-07" in out
        assert "10gbe" in out
        assert "off" in out

    def test_run_with_network_reports_traffic(self, capsys):
        code = main(
            [
                "run",
                "--workload", "graph-bfs",
                "--functions", "10",
                "--nodes", "4",
                "--error-rate", "0.1",
                "--network", "10gbe",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "network" in out
        assert "flows" in out
        assert "peak link util" in out

    def test_run_without_network_omits_traffic_line(self, capsys):
        code = main(
            [
                "run",
                "--workload", "graph-bfs",
                "--functions", "5",
                "--nodes", "2",
            ]
        )
        assert code == 0
        assert "peak link util" not in capsys.readouterr().out

    def test_run_json_includes_network_fields(self, capsys):
        code = main(
            [
                "run",
                "--workload", "graph-bfs",
                "--functions", "10",
                "--nodes", "4",
                "--network", "10gbe",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network_flows"] > 0
        assert payload["network_bytes"] > 0

    def test_figure_fast(self, capsys):
        # fig7 with the fast flag regenerates quickly.
        code = main(["figure", "fig7", "--fast"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "canary" in out


@pytest.fixture
def figure_calls(monkeypatch):
    """Replace every figure runner with one that records its arguments."""
    calls = []
    for name, module in FIGURES.items():
        def run(*, _name=name, **kwargs):
            calls.append((_name, kwargs))
            return FigureResult(_name, "stub", ("x",), [{"x": 1}])

        monkeypatch.setattr(module, "run", run)
    return calls


class TestFigureCommand:
    def test_fast_runs_at_claim_bench_scale(self, figure_calls):
        assert main(["figure", "fig9", "--fast", "--jobs", "1"]) == 0
        assert figure_calls == [("fig9", {**BENCH["fig9"], "jobs": 1})]

    def test_full_scale_passes_only_given_flags(self, figure_calls):
        assert main(["figure", "fig7"]) == 0
        assert figure_calls == [("fig7", {})]

    def test_all_runs_every_figure_once_in_order(self, figure_calls, capsys):
        assert main(["figure", "all", "--fast"]) == 0
        assert [name for name, _ in figure_calls] == list(FIGURES)
        assert all(kwargs == BENCH[name] for name, kwargs in figure_calls)
        assert capsys.readouterr().out.count("stub") == len(FIGURES)

    def test_fig4_runtimes_is_a_figure(self):
        args = build_parser().parse_args(["figure", "fig4-runtimes"])
        assert args.name == "fig4-runtimes"
        assert "fig4-runtimes" in FIGURES
