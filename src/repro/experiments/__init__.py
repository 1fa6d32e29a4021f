"""Experiment harness: one runner per paper figure (Fig. 4–12).

Each ``figXX`` module exposes ``run(...) -> FigureResult`` which regenerates
the series of the corresponding paper figure, and the benchmarks under
``benchmarks/`` print them.  ``EXPERIMENTS.md`` records paper-vs-measured.
"""

from repro.experiments import (
    fig04, fig05, fig06, fig07, fig08, fig09, fig10, fig11, fig12,
)

from repro.experiments.charts import bar_chart, comparison_chart, series_chart
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import (
    CellExecutionError,
    run_cells,
    run_sweep,
)
from repro.experiments.report import FigureResult, format_table, pct_change
from repro.experiments.runner import (
    mean_of,
    run_repeated,
    run_scenario,
)
from repro.experiments.validation import scorecard, validate_all

#: Figure name (as typed on the command line) -> module exposing ``run``.
FIGURES = {
    "fig4": fig04,
    "fig5": fig05,
    "fig6": fig06,
    "fig7": fig07,
    "fig8": fig08,
    "fig9": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
}

__all__ = [
    "CellExecutionError",
    "FIGURES",
    "FigureResult",
    "ScenarioConfig",
    "bar_chart",
    "comparison_chart",
    "format_table",
    "mean_of",
    "pct_change",
    "run_cells",
    "run_repeated",
    "run_scenario",
    "run_sweep",
    "scorecard",
    "series_chart",
    "validate_all",
]
