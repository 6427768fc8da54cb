"""Moment verification reports: closed forms against the exact-law oracle.

A report row holds, for one index at one (n, p1), the reference and verified
expectations, the shared variance value, the exact moments over all 2^(n-2)
chains when n is at most _ORACLE_NMAX, match flags at 1e-9 relative
tolerance, and the reference-vs-oracle gaps.  Longer rows carry the closed
forms alone, with every oracle column None.

The two sides rest on different engines.  The verified expectation cubics
and the variance slope are fitted from the structured matrix engine (pentagon
tables and cut-edge additivity); the reference cubics are the paper's
tables.  The exact moments come from the chain recurrence table behind
base + slope * T2 and one T2-law dynamic program per (n, p1), one round per
symmetric pair of weights: exact_distribution runs it for the first index,
and every row maps the moments of T2 through its own base + slope * T2 in
integers.  Each value's gap to the oracle is taken once; its match flag is
an integer cross-multiplication, and its gap fields come from the same gap.
Each rational output field is built once, as one Fraction, and each row in
one positional call.

A mismatch of the reference expectation is "explained" when the discrepancy
registry has entries for that index and the verified form does match;
anything else is an unexplained failure and makes the CLI exit nonzero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .chain import ProbabilityParams
from .closedform import Source, discrepancies_for, expected_index, variance_index
from .distribution import exact_distribution
from .indices import MOMENT_INDICES, IndexKind, index_moments

# A value matches the oracle when |value - oracle| / max(1, |oracle|) is at
# most 1 / _REL_TOL_DEN.
_REL_TOL_DEN = 10**9

# Longest chain whose rows the exact law checks.  Past it a report carries
# the closed forms alone; raising it changes the report output.
_ORACLE_NMAX = 22


def _gap(value, num, den) -> tuple[int, int, float | None]:
    """|value - num/den| for den > 0, as (numerator, denominator, float).

    The integer ratio is exact.  A float value gives the float gap that
    float - Fraction arithmetic rounds to, at its exact binary value, and
    that float as the third item; an exact value gives None there.
    """
    if type(value) is float:
        gap = abs(value - num / den)
        return (*gap.as_integer_ratio(), gap)
    return abs(value.numerator * den - num * value.denominator), value.denominator * den, None


def _within_tolerance(gap_num, gap_den, den, scale) -> bool:
    """Whether gap / max(1, |oracle|) <= 1 / _REL_TOL_DEN, for an oracle with
    denominator den and max(1, |oracle|) = scale / den; cross-multiplied."""
    return gap_num * den * _REL_TOL_DEN <= gap_den * scale


def _matches(value, num, den) -> bool:
    """Whether value is within the relative tolerance of the oracle num/den."""
    gap_num, gap_den, _ = _gap(value, num, den)
    return _within_tolerance(gap_num, gap_den, den, max(den, abs(num)))


def _gaps(value, num, den) -> tuple[bool, Fraction | float, Fraction | float]:
    """(match flag, gap_abs, gap_rel) of value against the oracle num/den,
    all from one gap, with gap_rel = gap_abs / max(1, |oracle|): Fractions
    for an exact value, and for a float value the floats that float -
    Fraction arithmetic gives."""
    gap_num, gap_den, gap = _gap(value, num, den)
    scale = max(den, abs(num))  # max(1, |oracle|) = scale / den
    match = _within_tolerance(gap_num, gap_den, den, scale)
    if gap is None:
        return match, Fraction(gap_num, gap_den), Fraction(gap_num * den, gap_den * scale)
    return match, gap, gap if scale == den else gap / (scale / den)


@dataclass(frozen=True)
class MomentRow:
    """One index at one (n, p1): closed forms, oracle, flags, gaps."""

    index: IndexKind
    n: int
    p1: Fraction | float
    expected_reference: Fraction | float
    expected_verified: Fraction | float
    variance: Fraction | float
    expected_oracle: Fraction | None = None
    variance_oracle: Fraction | None = None
    expected_reference_match: bool | None = None
    expected_verified_match: bool | None = None
    variance_match: bool | None = None
    expected_gap_abs: Fraction | float | None = None
    expected_gap_rel: Fraction | float | None = None
    variance_gap_abs: Fraction | float | None = None
    variance_gap_rel: Fraction | float | None = None


@dataclass(frozen=True)
class MomentReport:
    """The moment indices at one (n, p1)."""

    n: int
    p1: Fraction | float
    rows: tuple[MomentRow, ...]

    def failing_rows(self) -> list[MomentRow]:
        return [
            row
            for row in self.rows
            if False
            in (
                row.expected_reference_match,
                row.expected_verified_match,
                row.variance_match,
            )
        ]


def moment_report(n, p1) -> MomentReport:
    """Evaluate closed forms at (n, p1) and compare with the exact law.

    One row per index of MOMENT_INDICES.  p1 is checked once by
    ProbabilityParams.coerce, and the report and its rows carry the checked
    value: a Fraction or int for exact input, a float otherwise.  The closed
    forms come from the cached integer tables: verified cubics and variance
    slope fitted from the structured matrix engine, reference cubics from the
    paper.  The oracle columns fill only for n <= _ORACLE_NMAX (22), from one
    exact_distribution call: every index maps the moments of T2 through its
    own base + slope * T2 in integers (indices.index_moments), and each
    value's gap to the oracle is taken once, for its match flag and its gap
    fields alike.  For longer chains the closed forms are reported alone and
    every flag stays None.
    """
    p, _ = ProbabilityParams.coerce(p1)
    run_oracle = n <= _ORACLE_NMAX
    if run_oracle:  # one T2-law dynamic program per (n, p1)
        law = exact_distribution(MOMENT_INDICES[0], n, p)
    rows = []
    for kind in MOMENT_INDICES:
        reference = expected_index(kind, n, p, source=Source.REFERENCE)
        verified = expected_index(kind, n, p, source=Source.VERIFIED)
        variance = variance_index(kind, n, p)
        if not run_oracle:
            rows.append(MomentRow(kind, n, p, reference, verified, variance))
            continue
        mean_num, mean_den, var_num, var_den = index_moments(
            kind, n, law.t2_mean, law.t2_variance
        )
        e_match, e_gap_abs, e_gap_rel = _gaps(reference, mean_num, mean_den)
        v_match, v_gap_abs, v_gap_rel = _gaps(variance, var_num, var_den)
        rows.append(
            MomentRow(
                kind,
                n,
                p,
                reference,
                verified,
                variance,
                Fraction(mean_num, mean_den),
                Fraction(var_num, var_den),
                e_match,
                _matches(verified, mean_num, mean_den),
                v_match,
                e_gap_abs,
                e_gap_rel,
                v_gap_abs,
                v_gap_rel,
            )
        )
    return MomentReport(n, p, tuple(rows))


def verification_table(nmax, p1) -> list[MomentReport]:
    """Moment reports for every n = 1..nmax at one p1."""
    return [moment_report(n, p1) for n in range(1, nmax + 1)]


def unexplained_failures(reports) -> list[str]:
    """Mismatches the discrepancy registry does not cover.

    Variance or verified-expectation mismatches are never covered; a
    reference-expectation mismatch is covered exactly when the index has
    registry entries and its verified form matched the oracle.
    """
    problems = []
    for report in reports:
        for row in report.rows:
            where = f"{row.index.value} at n={row.n}, p1={row.p1}"
            if row.variance_match is False:
                problems.append(f"variance of {where}")
            if row.expected_verified_match is False:
                problems.append(f"verified expectation of {where}")
            if row.expected_reference_match is False:
                if not discrepancies_for(row.index):
                    problems.append(f"reference expectation of {where} (no registry entry)")
                elif row.expected_verified_match is False:
                    problems.append(f"reference expectation of {where} (verified form also fails)")
    return problems


def triggered_discrepancies(reports) -> list:
    """Registry entries for indices whose reference expectation mismatched."""
    seen: dict[str, object] = {}
    for report in reports:
        for row in report.rows:
            if row.expected_reference_match is False:
                for entry in discrepancies_for(row.index):
                    seen.setdefault(entry.key, entry)
    return list(seen.values())


def _num(value):
    if value is None:
        return None
    return float(value)


def _flag(value) -> str:
    if value is None:
        return "-"
    return "ok" if value else "FAIL"


def _cell(value) -> str:
    """A numeric table cell; an empty oracle column prints as nan."""
    return f"{float('nan') if value is None else float(value):>16.8g}"


def report_text(reports) -> str:
    """Fixed-width table plus a discrepancy section."""
    lines = []
    header = (
        f"{'index':<10} {'n':>3} {'E(reference)':>16} {'E(verified)':>16} "
        f"{'E(oracle)':>16} {'ref':>4} {'ver':>4} {'Var':>16} {'Var(oracle)':>16} {'var':>4}"
    )
    for report in reports:
        lines.append(f"n={report.n} p1={float(report.p1):g}")
        lines.append(header)
        for row in report.rows:
            lines.append(
                f"{row.index.value:<10} {row.n:>3} {_cell(row.expected_reference)} "
                f"{_cell(row.expected_verified)} {_cell(row.expected_oracle)} "
                f"{_flag(row.expected_reference_match):>4} "
                f"{_flag(row.expected_verified_match):>4} "
                f"{_cell(row.variance)} {_cell(row.variance_oracle)} "
                f"{_flag(row.variance_match):>4}"
            )
        lines.append("")
    entries = triggered_discrepancies(reports)
    if entries:
        lines.append("discrepancies:")
        for entry in entries:
            lines.append(f"  [{entry.key}] {entry.affects}")
            lines.append(f"    reference: {entry.reference_form}")
            lines.append(f"    verified:  {entry.verified_form}")
            lines.append(f"    evidence:  {entry.evidence}")
    else:
        lines.append("discrepancies: none triggered")
    problems = unexplained_failures(reports)
    if problems:
        lines.append("unexplained failures:")
        lines.extend(f"  {p}" for p in problems)
    return "\n".join(lines) + "\n"


# The output fields of a row, in order; each names a MomentRow field.
_CSV_COLUMNS = (
    "index",
    "n",
    "p1",
    "expected_reference",
    "expected_verified",
    "expected_oracle",
    "expected_reference_match",
    "expected_verified_match",
    "expected_gap_abs",
    "expected_gap_rel",
    "variance",
    "variance_oracle",
    "variance_match",
    "variance_gap_abs",
    "variance_gap_rel",
)
_AS_IS = frozenset({"n", "expected_reference_match", "expected_verified_match", "variance_match"})


def _row_record(row: MomentRow) -> dict:
    """The row's output fields in _CSV_COLUMNS order: the index by name, n and
    the match flags as they are, every other field as a float or None."""
    record = {"index": row.index.value}
    for column in _CSV_COLUMNS[1:]:
        value = getattr(row, column)
        record[column] = value if column in _AS_IS else _num(value)
    return record


def csv_text(columns, records) -> str:
    """A header line and one line per record dict, None as an empty cell."""
    lines = [",".join(columns)]
    for record in records:
        lines.append(",".join("" if record[c] is None else str(record[c]) for c in columns))
    return "\n".join(lines) + "\n"


def report_csv(reports) -> str:
    return csv_text(_CSV_COLUMNS, [_row_record(row) for report in reports for row in report.rows])


def report_json(reports, monte_carlo=None) -> str:
    """The JSON report: reports, discrepancies, unexplained failures, and the
    Monte Carlo rows when given."""
    payload = {
        "reports": [
            {
                "n": report.n,
                "p1": _num(report.p1),
                "rows": [_row_record(row) for row in report.rows],
            }
            for report in reports
        ],
        "discrepancies": [
            {
                "key": entry.key,
                "affects": entry.affects,
                "reference_form": entry.reference_form,
                "verified_form": entry.verified_form,
                "evidence": entry.evidence,
            }
            for entry in triggered_discrepancies(reports)
        ],
        "unexplained_failures": unexplained_failures(reports),
    }
    if monte_carlo is not None:
        payload["monte_carlo"] = monte_carlo
    return json.dumps(payload, indent=2)


_GRID_COLUMNS = ("n", "p1") + tuple(
    f"{moment}_{name}" for moment in ("E", "Var") for name in ("gut", "schultz", "kfstar", "kfplus")
)


def expectation_grid_csv(n_values, p1_values) -> str:
    """Surface export: verified expectations and variances over a grid.

    Columns n, p1, E_gut, E_schultz, E_kfstar, E_kfplus, Var_gut,
    Var_schultz, Var_kfstar, Var_kfplus; rows ordered n-major.
    """
    records = []
    for n in n_values:
        for p1 in p1_values:
            cells = [
                f"{float(fn(kind, n, p1)):.12g}"
                for fn in (expected_index, variance_index)
                for kind in MOMENT_INDICES
            ]
            records.append(dict(zip(_GRID_COLUMNS, [n, f"{float(p1):g}", *cells])))
    return csv_text(_GRID_COLUMNS, records)
