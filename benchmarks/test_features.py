"""Every feature-bench row of ``features.FEATURE_CLAIMS``.

One test per row, named by its id.  Each bench runs once per session, timed
in the first test that needs it, and a bench in ``RESULT_FILES`` writes its
record to the repo root; ``-s`` prints each record.  The records hold no
host time, so a run that changes a committed result file means the file was
stale.
"""

import json
from pathlib import Path

import pytest
from features import BENCHES, FEATURE_CLAIMS, RESULT_FILES

from repro.experiments.claims import scorecard

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def bench():
    """Bench name -> its record, run (and written) on first use."""
    records = {}

    def run(name):
        if name not in records:
            records[name] = BENCHES[name].run()
            text = json.dumps(records[name], indent=2) + "\n"
            if name in RESULT_FILES:
                (ROOT / RESULT_FILES[name]).write_text(text)
            print()
            print(text, end="")
        return records[name]

    return run


@pytest.mark.parametrize("claim", FEATURE_CLAIMS, ids=lambda claim: claim.id)
def test_feature(benchmark, bench, claim):
    record = benchmark.pedantic(bench, args=(claim.figure,), rounds=1,
                                iterations=1)
    verdict = claim.check(record)
    assert verdict.passed, scorecard([verdict])
