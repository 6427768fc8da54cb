"""Moment reports: closed forms against the exact law, one T2 law per (n, p1)."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

import pentachain.distribution as distribution
import pentachain.report as report
from pentachain import MOMENT_INDICES, IndexKind, ProbabilityParams, t2_weights
from pentachain.report import MomentReport, moment_report, unexplained_failures

from helpers import enumeration_moments

ORACLE_COLUMNS = (
    "expected_oracle",
    "variance_oracle",
    "expected_reference_match",
    "expected_verified_match",
    "variance_match",
    "expected_gap_abs",
    "expected_gap_rel",
    "variance_gap_abs",
    "variance_gap_rel",
)


@pytest.mark.parametrize("p1", [Fraction(1, 5), Fraction(1, 2), 0.3], ids=str)
def test_rows_equal_the_enumeration_moments(p1):
    exact_p = ProbabilityParams(Fraction(p1))
    for n in range(1, 11):
        rep = moment_report(n, p1)
        assert [row.index for row in rep.rows] == list(MOMENT_INDICES)
        for row in rep.rows:
            mean, var = enumeration_moments(row.index, n, exact_p)
            assert row.expected_oracle == mean and row.variance_oracle == var
            assert row.expected_verified_match and row.variance_match
            if isinstance(p1, float):
                assert math.isclose(row.expected_verified, mean, rel_tol=1e-12)
                assert math.isclose(row.variance, var, rel_tol=1e-12, abs_tol=1e-9)
            else:
                assert row.expected_verified == mean and row.variance == var
                assert row.expected_gap_abs == abs(row.expected_reference - mean)


def test_oracle_checks_rows_up_to_n_22_only(monkeypatch):
    calls = []
    original = report.exact_distribution

    def counting_oracle(index, n, p1):
        calls.append(n)
        return original(index, n, p1)

    monkeypatch.setattr(report, "exact_distribution", counting_oracle)
    rep = moment_report(22, Fraction(1, 3))
    assert calls == [22]
    assert all(row.expected_verified_match and row.variance_match for row in rep.rows)
    # past the limit the closed forms stand alone
    rep = moment_report(23, Fraction(1, 3))
    assert calls == [22]
    assert len(rep.rows) == len(MOMENT_INDICES)
    for row in rep.rows:
        assert row.expected_verified is not None and row.variance is not None
        assert all(getattr(row, column) is None for column in ORACLE_COLUMNS)
    assert rep.failing_rows() == [] and unexplained_failures([rep]) == []


def test_unexplained_failures_follow_the_registry():
    rows = {row.index: row for row in moment_report(5, Fraction(1, 2)).rows}
    # kf_plus has registry entries, and its verified form matches: explained
    covered = replace(rows[IndexKind.KF_PLUS], expected_reference_match=False)
    # gutman has none: a reference mismatch there is unexplained
    uncovered = replace(rows[IndexKind.GUTMAN], expected_reference_match=False)
    rep = MomentReport(n=5, p1=Fraction(1, 2), rows=(covered, uncovered))
    assert rep.failing_rows() == [covered, uncovered]
    assert unexplained_failures([rep]) == [
        "reference expectation of gutman at n=5, p1=1/2 (no registry entry)"
    ]
    both = replace(covered, expected_verified_match=False)
    assert unexplained_failures([replace(rep, rows=(both,))]) == [
        "verified expectation of kf_plus at n=5, p1=1/2",
        "reference expectation of kf_plus at n=5, p1=1/2 (verified form also fails)",
    ]


def test_one_report_runs_the_t2_law_once(monkeypatch):
    dp_runs, oracle_calls = [], []

    def counting_weights(n):
        dp_runs.append(n)
        return t2_weights(n)

    original = report.exact_distribution

    def counting_oracle(index, n, p1):
        oracle_calls.append((index, n, p1))
        return original(index, n, p1)

    monkeypatch.setattr(distribution, "t2_weights", counting_weights)
    monkeypatch.setattr(report, "exact_distribution", counting_oracle)
    rep = moment_report(12, Fraction(2, 7))
    assert dp_runs == [12]
    assert oracle_calls == [(IndexKind.GUTMAN, 12, Fraction(2, 7))]
    assert all(row.expected_verified_match and row.variance_match for row in rep.rows)
