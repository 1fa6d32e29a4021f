"""Shared benchmark configuration.

Benchmarks run at reduced scale (3 seeds instead of the paper's 10) so the
whole suite runs in minutes.  Run with ``-s`` to see the regenerated
tables.

Sweeps fan out over worker processes: pass ``--jobs N`` (or set
``REPRO_JOBS``) to pick the worker count; ``--jobs 1`` forces the serial
in-process path.  The default of one worker per core produces identical
numbers either way — cells are deterministic per (scenario, seed).
"""

from __future__ import annotations

import pytest

FAST_SEEDS = tuple(range(3))


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per sweep (default: one per core; "
        "1 = serial)",
    )


@pytest.fixture
def jobs(request):
    """Worker count for sweeps, from --jobs / REPRO_JOBS / cores."""
    return request.config.getoption("--jobs")


def show(result) -> None:
    """Print a figure table (visible with pytest -s)."""
    from repro.experiments.report import format_table

    print()
    print(format_table(result))
