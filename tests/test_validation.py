"""The paper's claims (``repro.experiments.claims``) at tier-1 scale, and
the claim table's structure.

This is the repository's acceptance test: a reduced-scale sweep of every
figure with each claim row checked against its bound.
"""

import pytest

from repro.experiments import FIGURES
from repro.experiments.claims import (
    BENCH,
    CLAIMS,
    TIER1,
    Claim,
    Verdict,
    check_claims,
    scorecard,
)

#: Rows that fail at tier-1 scale: Canary at 50% errors runs 1.305x ideal,
#: the open Fig. 7 fidelity decision (ROADMAP item E).
TIER1_FAILURES = {"fig7.canary-every-rate"}


@pytest.mark.slow
def test_claims_at_tier1_scale():
    verdicts = check_claims(TIER1)
    failed = {v.claim.id for v in verdicts if not v.passed}
    assert failed == TIER1_FAILURES, scorecard(verdicts)


def test_claim_ids_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))


def test_every_figure_has_claims():
    figures = {claim.figure for claim in CLAIMS}
    assert set(FIGURES) | {"fig4-runtimes"} <= figures


def test_every_claim_runs_at_both_scales():
    for claim in CLAIMS:
        assert claim.figure in TIER1 and claim.figure in BENCH, claim.id


def test_scorecard_rendering():
    claim = Claim("figX.a-claim", "a/b", "0.2 (80% cut)",
                  lambda result: 0.0, "<", 0.4)
    text = scorecard([Verdict(claim, 0.25), Verdict(claim, 0.5)])
    lines = text.splitlines()
    assert lines[0].split() == ["claim", "status", "paper", "measured",
                                "bound", "measure"]
    assert lines[1].split() == ["figX.a-claim", "PASS", "0.2", "(80%", "cut)",
                                "0.25", "<", "0.4", "a/b"]
    assert lines[2].split()[1] == "FAIL"
    assert lines[-1] == "-- 1/2 claims reproduced --"
