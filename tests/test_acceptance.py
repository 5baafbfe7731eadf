"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with -s (or read the captured output on failure) to see the
one-line verdicts; the same suite backs the `verify` subcommand.
"""

import pytest

from canonfactor.acceptance import CRITERIA, NAMES, AcceptanceContext


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext(seed=0)


@pytest.mark.parametrize("index", sorted(CRITERIA), ids=lambda i: f"{i:02d}")
def test_criterion(index, ctx):
    result = CRITERIA[index](ctx)
    print(result.line())
    assert result.passed, result.line()


def test_full_run_reports_all(capsys):
    from canonfactor.acceptance import run_acceptance
    results = run_acceptance(indices=[1, 9], printer=print)
    lines = capsys.readouterr().out
    assert "[PASS]  1" in lines
    assert "[PASS]  9" in lines
    assert all(r.passed for r in results)
    assert [r.index for r in results] == [1, 9]


def test_negative_seed_is_refused_before_any_criterion():
    from canonfactor import DomainError
    from canonfactor.acceptance import run_acceptance
    printed = []
    with pytest.raises(DomainError, match="seed must be >= 0"):
        run_acceptance(indices=[2], printer=printed.append, seed=-1)
    assert printed == []
