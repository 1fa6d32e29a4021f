"""Tests for the terminal charts."""

import pytest

from repro.experiments.charts import bar_chart, comparison_chart, series_chart
from repro.experiments.report import FigureResult


class TestBarChart:
    def test_renders_all_labels_and_values(self):
        text = bar_chart(["a", "bb"], [1.0, 2.0], title="t", unit="s")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert " a " in lines[1] or lines[1].startswith(" a")
        assert "2.00s" in lines[2]

    def test_largest_value_fills_width(self):
        text = bar_chart(["x", "y"], [1.0, 4.0], width=8)
        assert "████████" in text

    def test_zero_values(self):
        text = bar_chart(["x"], [0.0])
        assert "0.00" in text

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty(self):
        assert bar_chart([], [], title="empty") == "empty"


def demo_result():
    return FigureResult(
        figure="demo",
        title="demo",
        columns=("strategy", "error_rate", "makespan_s"),
        rows=[
            {"strategy": "retry", "error_rate": 0.1, "makespan_s": 10.0},
            {"strategy": "retry", "error_rate": 0.5, "makespan_s": 40.0},
            {"strategy": "canary", "error_rate": 0.1, "makespan_s": 11.0},
            {"strategy": "canary", "error_rate": 0.5, "makespan_s": 12.0},
        ],
    )


class TestSeriesChart:
    def test_groups_by_series(self):
        text = series_chart(
            demo_result(), x="error_rate", y="makespan_s", series="strategy"
        )
        assert "strategy=retry" in text
        assert "strategy=canary" in text
        assert "40.00" in text

    def test_missing_columns_raise(self):
        with pytest.raises(ValueError):
            series_chart(
                demo_result(), x="nope", y="nope", series="nope"
            )

    def test_comparison_chart_filters(self):
        text = comparison_chart(
            demo_result(),
            metric="makespan_s",
            key="strategy",
            match={"error_rate": 0.5},
        )
        assert "retry" in text and "canary" in text
        assert "40.00" in text and "12.00" in text

