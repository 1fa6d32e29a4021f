"""Tiny-scale smoke tests for every figure module's row/note generation."""

import hashlib

import pytest

from repro.experiments import (
    fig04,
    fig04_runtimes,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
)
from repro.experiments.report import format_table

_RATES = (0.1, 0.5)

#: Tiny axes per runner (every case also runs at seeds (0,) with jobs=1).
_PIN_CASES = {
    "fig4": (fig04, dict(error_rates=_RATES, workloads=("graph-bfs",),
                         num_functions=20)),
    "fig4-runtimes": (fig04_runtimes, dict(num_functions=20)),
    "fig5": (fig05, dict(invocations=(20, 40), workloads=("graph-bfs",))),
    "fig6": (fig06, dict(error_rates=_RATES, workloads=("graph-bfs",),
                         num_functions=20)),
    "fig7": (fig07, dict(error_rates=_RATES, num_functions=20)),
    "fig7-contention": (fig07, dict(error_rates=_RATES, num_functions=20,
                                    placement="contention")),
    "fig8": (fig08, dict(error_rates=_RATES, num_functions=20)),
    "fig9": (fig09, dict(error_rates=_RATES, num_functions=20)),
    "fig10": (fig10, dict(error_rates=_RATES, num_functions=20)),
    "fig11": (fig11, dict(invocations=(20, 40))),
    "fig12": (fig12, dict(node_counts=(1, 2), num_functions=20,
                          batch_jobs=2)),
}

#: sha256 of ``format_table(result)`` for each case: rows, columns, number
#: formatting and notes.  A refactor of the runners must keep every pin.
_TABLE_PINS = {
    "fig4": "a84ce2dcb76c6f1fb27bdb662e97ed17324723e6d9345678c31393743687d330",
    "fig4-runtimes":
        "42a15916601bb72474a05ce921a25f2abf0bd92567670b2dd5dc46f59479237a",
    "fig5": "2666d4e7ad0087cc99a472608474ed5f0a06eace8f44eb9a5d5ca5f9c00e036c",
    "fig6": "00efad0a329eeeac217b5b4232b11f2ec4de21889f559e65453d8f10f72b24dd",
    "fig7": "c321064fa3970d1c9492af0ff20163b51faa3dad8334e24236080767173331e7",
    "fig7-contention":
        "8efc9106df783595077c0146eb160e6e7a73847b97ec4749d93c4fe384c2feb2",
    "fig8": "5653abf6467132f4760b564d9d64194ea4f10c25fe160ddef06d7b8f9628fab8",
    "fig9": "abea4da3c26a8a1db8e388d190c524b5a95b427a255d95d5f202c03b017350a8",
    "fig10": "12b4eba1a5437fa9893994183f530c66ee410d666c23c4050ba35061bf305de8",
    "fig11": "7ee7b873347467b1e4ae8830aadad55e0f77ddba7e23a3c368c5d7d9bdcefe19",
    "fig12": "eca77204ebb81ff703af425b4507483fdecbe96a9c0c266645fc85f676a481f1",
}


def _table_digest(name: str) -> str:
    module, kwargs = _PIN_CASES[name]
    text = format_table(module.run(seeds=(0,), jobs=1, **kwargs))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_PIN_CASES))
def test_figure_table_pinned(name):
    assert _table_digest(name) == _TABLE_PINS[name]


def test_placement_override_changes_the_figure():
    assert _table_digest("fig7-contention") != _TABLE_PINS["fig7"]


class TestFig04Runtimes:
    def test_rows_and_notes(self):
        result = fig04_runtimes.run(seeds=(0,), num_functions=20)
        assert len(result.rows) == 6  # 3 runtimes x 2 strategies
        assert len(result.notes) == 3
        for runtime in ("python", "nodejs", "java"):
            assert result.value(
                "mean_recovery_s", runtime=runtime, strategy="canary"
            ) < result.value(
                "mean_recovery_s", runtime=runtime, strategy="retry"
            )


class TestFig05:
    def test_rows_and_notes(self):
        result = fig05.run(
            seeds=(0,), invocations=(50, 100), workloads=("graph-bfs",)
        )
        assert len(result.rows) == 6  # 3 strategies x 2 scales
        assert any("graph-bfs" in n for n in result.notes)
        assert (
            result.value(
                "total_recovery_s",
                workload="graph-bfs",
                strategy="ideal",
                invocations=50,
            )
            == 0.0
        )


class TestFig06:
    def test_ablation_columns_present(self):
        result = fig06.run(
            seeds=(0,), error_rates=(0.2,), workloads=("graph-bfs",),
            num_functions=20,
        )
        strategies = {r["strategy"] for r in result.rows}
        assert strategies == {
            "retry",
            "canary-checkpoint-only",
            "canary",
        }
        assert any("near-constant" in n for n in result.notes)


class TestFig08:
    def test_cost_notes(self):
        result = fig08.run(
            seeds=(0,), error_rates=(0.1, 0.5), num_functions=20,
            workload="graph-bfs",
        )
        assert any("cheaper" in n for n in result.notes)
        retry_costs = [
            result.value("cost_usd", strategy="retry", error_rate=e)
            for e in (0.1, 0.5)
        ]
        assert retry_costs[1] > retry_costs[0]


class TestFig10:
    def test_ratio_notes(self):
        result = fig10.run(
            seeds=(0,), error_rates=(0.2,), num_functions=20,
            workload="graph-bfs",
        )
        assert any("RR cost" in n for n in result.notes)
        canary = result.value("cost_usd", strategy="canary", error_rate=0.2)
        rr = result.value(
            "cost_usd", strategy="request-replication", error_rate=0.2
        )
        assert rr > canary


class TestFig11:
    def test_node_failure_scaling(self):
        result = fig11.run(seeds=(0,), invocations=(100, 200))
        assert fig11.node_failures_for(200) == 1
        assert fig11.node_failures_for(800) == 2
        retry = result.value(
            "mean_recovery_s", strategy="retry", invocations=100
        )
        canary = result.value(
            "mean_recovery_s", strategy="canary", invocations=100
        )
        assert canary < retry
        assert any("paper" in n for n in result.notes)
