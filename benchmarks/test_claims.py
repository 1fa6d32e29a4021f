"""Every paper claim of ``repro.experiments.claims`` at bench scale.

One test per claim row, named by its id.  Each figure's sweep runs once per
session, timed in the first test that needs it; ``-s`` prints its table.
"""

import pytest
from conftest import show

from repro.experiments.claims import BENCH, CLAIMS, run_figure, scorecard


@pytest.fixture(scope="session")
def sweep(request):
    """Figure name -> its bench-scale FigureResult, run on first use."""
    jobs = request.config.getoption("--jobs")
    results = {}

    def run(figure):
        if figure not in results:
            results[figure] = run_figure(figure, BENCH, jobs=jobs)
            show(results[figure])
        return results[figure]

    return run


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(benchmark, sweep, claim):
    result = benchmark.pedantic(sweep, args=(claim.figure,), rounds=1,
                                iterations=1)
    verdict = claim.check(result)
    assert verdict.passed, scorecard([verdict])
