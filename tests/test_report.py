"""Moment reports: closed forms against the exact law, one T2 law per (n, p1)."""

import math
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import pentachain.closedform as closedform
import pentachain.distribution as distribution
import pentachain.indices as indices_mod
import pentachain.report as report
from pentachain import MOMENT_INDICES, IndexKind, ProbabilityParams, t2_weights
from pentachain.cli import main
from pentachain.report import MomentReport, MomentRow, moment_report, unexplained_failures

from helpers import count_calls, enumeration_moments, fraction_moment_report

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


def test_report_goes_through_the_names_the_benchmark_traces(monkeypatch):
    # perfbench's moment_verify times these three names on report
    calls = count_calls(
        monkeypatch, report, ("exact_distribution", "expected_index", "variance_index")
    )
    moment_report(9, Fraction(1, 5))
    assert calls == {"exact_distribution": 1, "expected_index": 8, "variance_index": 4}


def assert_same_report(got, want):
    assert (got.n, got.p1, len(got.rows)) == (want.n, want.p1, len(want.rows))
    for row, expected in zip(got.rows, want.rows):
        for field in fields(MomentRow):
            x, y = getattr(row, field.name), getattr(expected, field.name)
            # repr also tells 0.0 from -0.0 and pins every float bit
            assert type(x) is type(y) and x == y and repr(x) == repr(y), (
                f"{field.name} of {row.index.value} at n={row.n}, p1={row.p1!r}: {x!r} != {y!r}"
            )


@pytest.mark.parametrize(
    "p1",
    [0, 1, Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), Fraction(2, 7), 0.3, Fraction(0.3)],
    ids=repr,
)
def test_integer_report_equals_the_fraction_report(p1):
    # n = 1..24 crosses the oracle limit at n = 22
    for n in range(1, 25):
        assert_same_report(moment_report(n, p1), fraction_moment_report(n, p1))


@given(n=st.integers(1, 24), b=st.integers(1, 60), data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_report_equals_the_fraction_report_at_random_rationals(n, b, data):
    p1 = Fraction(data.draw(st.integers(0, b)), b)
    assert_same_report(moment_report(n, p1), fraction_moment_report(n, p1))


@pytest.mark.parametrize(
    "n, p1, rel, match",
    [
        pytest.param(n, p1, rel, match, id=f"{n!r}-{p1!r}-{rel}-{match}")
        # n = 2 is deterministic: every variance oracle is 0, so |oracle| < 1
        # and the tolerance is absolute; the expectations lie above 1
        for n, p1 in [(2, Fraction(1, 2)), (6, Fraction(1, 5)), (2, 0.5), (6, 0.2)]
        for rel, match in [(Fraction(1, 2 * 10**9), True), (Fraction(2, 10**9), False)]
        # exactly at the tolerance only exact p1 is unambiguous: a float shift
        # rounds to either side
        + ([(Fraction(1, 10**9), True)] if type(p1) is Fraction else [])
    ],
)
def test_match_flags_at_the_tolerance_boundary(n, p1, rel, match, monkeypatch):
    # every closed form is moved off the oracle by rel * max(1, |oracle|):
    # half the 1e-9 tolerance matches, exactly it matches, twice it does not
    exact = isinstance(p1, Fraction)
    true_mean, true_variance = report.expected_index, report.variance_index

    def moved(value):
        shift = rel * max(1, abs(Fraction(value)))
        return value + shift if exact else value + float(shift)

    monkeypatch.setattr(
        report, "expected_index", lambda kind, n, p, source: moved(true_mean(kind, n, p))
    )
    monkeypatch.setattr(report, "variance_index", lambda kind, n, p: moved(true_variance(kind, n, p)))
    for row in moment_report(n, p1).rows:
        assert row.variance_oracle == 0 if n == 2 else row.variance_oracle > 1
        assert row.expected_oracle > 1
        assert (row.expected_reference_match, row.expected_verified_match, row.variance_match) == (
            match,
            match,
            match,
        )
        for rel_gap in (row.expected_gap_rel, row.variance_gap_rel):
            assert type(rel_gap) is (Fraction if exact else float)
            assert rel_gap == rel if exact else math.isclose(rel_gap, rel, rel_tol=1e-6)


def _shifted_rec(kind, **shifts):
    names = ("x1", "carry1", "slope1", "icept1", "slope2", "icept2", "acc_slope", "acc_icept", "scale")
    row = dict(zip(names, indices_mod._REC[kind]))
    for name, shift in shifts.items():
        row[name] += shift
    return tuple(row.values())


@pytest.fixture
def cold_closed_forms():
    """The closed forms' caches emptied before and after the test, so the
    fit and the slope are computed under the test's patches."""
    caches = (
        closedform._deterministic_chains,
        closedform.fitted_expectation_coefficients,
        closedform._squared_slope,
        closedform._poly_forms,
    )
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


@pytest.mark.parametrize(
    "kind, shifts, failures",
    [
        # the seed of the recurrence: every kf_star value moves by 5/5 = 1
        (IndexKind.KF_STAR, {"x1": 5}, ["verified expectation"]),
        # the mode-2 step moves, with both mode gaps still equal: the slope
        # grows from 144 to 145 and the affine form stays well defined
        (IndexKind.GUTMAN, {"slope2": 1, "icept2": 1}, ["verified expectation", "variance"]),
    ],
    ids=["kf_star-seed", "gutman-slope"],
)
def test_report_catches_an_error_in_the_recurrence_table(
    kind, shifts, failures, monkeypatch, capsys, cold_closed_forms
):
    # the oracle maps T2 through the recurrence table; the verified cubics and
    # the variance slope come from the structured matrix engine, so an error
    # in the table is an unexplained failure, not a registry discrepancy
    monkeypatch.setitem(indices_mod._REC, kind, _shifted_rec(kind, **shifts))
    assert main(["report", "--nmax", "10", "--p1", "1/5,1/2"]) == 4
    out = capsys.readouterr().out
    for failure in failures:
        assert f"{failure} of {kind.value} at n=" in out
