"""Tests for the terminal charts."""

import pytest

from repro.experiments.charts import series_chart
from repro.experiments.report import FigureResult


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

    def test_largest_value_fills_width(self):
        text = series_chart(
            demo_result(), x="error_rate", y="makespan_s", series="strategy",
            width=8,
        )
        assert "████████" in text

    def test_zero_values(self):
        result = FigureResult(
            figure="zero",
            title="zero",
            columns=("strategy", "error_rate", "makespan_s"),
            rows=[{"strategy": "ideal", "error_rate": 0.1, "makespan_s": 0.0}],
        )
        text = series_chart(
            result, x="error_rate", y="makespan_s", series="strategy"
        )
        assert "0.00" in text
