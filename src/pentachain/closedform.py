"""Closed-form moments of the random-chain indices.

Every index of a chain is base(n) + slope * T2, where T2 sums the weights
w_k = (n-k)(k-1) over the mode-2 positions k = 2..n-1, each position
independently mode 2 with probability 1 - p1.  Hence the expected Gutman,
Schultz and the two degree-Kirchhoff indices are cubic polynomials in the
chain length n whose coefficients are affine in the mode-1 probability p1,
and every variance is slope**2 * p1(1-p1) * sum_k w_k**2.  Auxiliary
expected vertex loads of the open attachment vertex (sequences A through D)
are quadratics of the same shape.

Expectations and sequences come in two flavours selected by `Source`:

* ``Source.REFERENCE`` keeps the reference closed forms verbatim, stored as
  coefficient tables, for faithful reproduction.
* ``Source.VERIFIED`` derives the expectation cubics at runtime by exact
  interpolation of deterministic-chain values from the structured matrix
  engine (`fitted_expectation_coefficients`); the sequences stay stored
  tables.  The two differ only for the degree-Kirchhoff expectations (and
  the resistance-load sequence D feeding one of them); the ``DISCREPANCIES``
  registry documents every known gap, and the enumeration oracle in the test
  suite is the arbiter.

The variance slope comes from the same engine.  Neither reads the chain
recurrence table behind `affine_in_t2`, which drives the exact-law oracle,
so a moment report compares two engines and an error in either shows.

Evaluation is exact integer arithmetic at every p1: a rational p1 gives an
exact Fraction, and a float p1 the float nearest the exact value at
Fraction(p1), rounded once.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .chain import AttachmentMode, ProbabilityParams, all_mode_blueprint, build_graph
from .indices import MOMENT_INDICES, IndexKind, compute_indices
from .metrics import structured_metrics

F = Fraction


class Source(Enum):
    """Which coefficient table to evaluate."""

    __hash__ = object.__hash__  # identity, as for IndexKind: no Python call per lookup

    REFERENCE = "reference"
    VERIFIED = "verified"


class SequenceKind(Enum):
    """Expected loads of the open attachment vertex u_n.

    A: degree-weighted distance load  E[sum_v d(v) d(u_n, v)]
    B: distance load                  E[sum_v d(u_n, v)]
    C: degree-weighted resistance load E[sum_v d(v) r(u_n, v)]
    D: resistance load                E[sum_v r(u_n, v)]
    """

    __hash__ = object.__hash__  # identity, as for IndexKind

    A = "A"
    B = "B"
    C = "C"
    D = "D"


# Polynomial tables: {power: (c0, c1)} meaning the n**power coefficient is
# c0 + c1 * p1.  All entries exact rationals.

_EXPECTATION_REFERENCE: dict[IndexKind, dict[int, tuple[Fraction, Fraction]]] = {
    IndexKind.GUTMAN: {3: (F(72), F(-24)), 2: (F(-12), F(72)), 1: (F(1), F(-48)), 0: (F(-1), F(0))},
    IndexKind.SCHULTZ: {3: (F(60), F(-20)), 2: (F(7), F(60)), 1: (F(-7), F(-40)), 0: (F(0), F(0))},
    IndexKind.KF_STAR: {
        3: (F(264, 5), F(-48, 5)),
        2: (F(-12, 5), F(144, 5)),
        1: (F(193, 5), F(-96, 5)),
        0: (F(-49), F(0)),
    },
    IndexKind.KF_PLUS: {3: (F(44), F(-8)), 2: (F(11), F(48)), 1: (F(-15), F(-88)), 0: (F(0), F(48))},
}

_SEQUENCE_SHARED: dict[SequenceKind, dict[int, tuple[Fraction, Fraction]]] = {
    SequenceKind.A: {2: (F(18), F(-6)), 1: (F(-7), F(6)), 0: (F(1), F(0))},
    SequenceKind.B: {2: (F(15, 2), F(-5, 2)), 1: (F(-3, 2), F(5, 2)), 0: (F(0), F(0))},
    SequenceKind.C: {2: (F(66, 5), F(-12, 5)), 1: (F(-31, 5), F(12, 5)), 0: (F(1), F(0))},
}

_SEQUENCE = {
    Source.REFERENCE: {
        **_SEQUENCE_SHARED,
        SequenceKind.D: {2: (F(11, 2), F(-1)), 1: (F(-3, 2), F(5)), 0: (F(0), F(-4))},
    },
    Source.VERIFIED: {
        **_SEQUENCE_SHARED,
        SequenceKind.D: {2: (F(11, 2), F(-1)), 1: (F(-3, 2), F(1)), 0: (F(0), F(0))},
    },
}


@dataclass(frozen=True)
class Discrepancy:
    """One verified gap between a reference closed form and the oracle."""

    key: str
    index: IndexKind | None
    affects: str
    reference_form: str
    verified_form: str
    evidence: str


DISCREPANCIES: dict[str, Discrepancy] = {
    d.key: d
    for d in (
        Discrepancy(
            key="kf-plus-expectation",
            index=IndexKind.KF_PLUS,
            affects="expected additive degree-Kirchhoff index of a random chain",
            reference_form="(44 - 8p)n^3 + (48p + 11)n^2 - (88p + 15)n + 48p",
            verified_form="(44 - 8p)n^3 + (24p + 11)n^2 - (16p + 15)n",
            evidence=(
                "reference - verified = 24p(n-1)(n-2); exact enumeration at "
                "n = 3 gives the mean 1242 - 48p while the reference cubic "
                "is p-free there (1242)"
            ),
        ),
        Discrepancy(
            key="attachment-resistance-sum",
            index=IndexKind.KF_PLUS,
            affects=(
                "expected resistance load of the open attachment vertex "
                "(sequence D, which drives the kf_plus expectation)"
            ),
            reference_form="(11/2 - p)n^2 + (5p - 3/2)n - 4p",
            verified_form="(11/2 - p)n^2 + (p - 3/2)n",
            evidence=(
                "direct evaluation from the pentagon resistance table gives "
                "19 - 2p at n = 2; the reference form gives 19 + 2p"
            ),
        ),
        Discrepancy(
            key="kf-star-expectation",
            index=IndexKind.KF_STAR,
            affects="expected multiplicative degree-Kirchhoff index of a random chain",
            reference_form=(
                "(264/5 - 48/5 p)n^3 + (144/5 p - 12/5)n^2 "
                "+ (193/5 - 96/5 p)n - 49"
            ),
            verified_form=(
                "(264/5 - 48/5 p)n^3 + (144/5 p - 12/5)n^2 "
                "- (47/5 + 96/5 p)n - 1"
            ),
            evidence=(
                "reference - verified = 48(n-1), independent of p; all three "
                "matrix engines give 393 for the two-pentagon chain where "
                "the reference cubic gives 441"
            ),
        ),
        Discrepancy(
            key="kf-star-accumulation",
            index=IndexKind.KF_STAR,
            affects=(
                "deterministic per-step accumulation constant in the "
                "multiplicative degree-Kirchhoff recurrence"
            ),
            reference_form="228k + 77 (quoted elsewhere as 288k + 77)",
            verified_form="228k + 29",
            evidence=(
                "77 = 29 + 48 double-counts the appended pentagon's own "
                "degree-resistance block; with 228k + 29 the recurrence "
                "engine equals the matrix engines exactly on every chain "
                "with n <= 9 and on randomized larger chains"
            ),
        ),
        Discrepancy(
            key="pentagon-degree-distance-sum",
            index=None,
            affects="tabulated degree-weighted distance sums inside one pentagon",
            reference_form="sum_i d(x_i) d(x_1, x_i) = 22, companion anchor entry 15",
            verified_form="12 and 14",
            evidence=(
                "on a 5-cycle the distance row from any anchor is "
                "{0,1,2,2,1}; with degree 2 everywhere the weighted sum is "
                "12, and a single degree-3 attachment adds its distance to "
                "the anchor (2 for the far anchor, hence 14); engine sums "
                "are computed from first principles, so only the display "
                "table is affected"
            ),
        ),
    )
}


def discrepancies_for(index: IndexKind) -> list[Discrepancy]:
    """Registered discrepancies touching the given index."""
    return [d for d in DISCREPANCIES.values() if d.index is index]


def _require_moment_index(index: IndexKind) -> None:
    if index not in MOMENT_INDICES:
        raise ValueError(f"no closed-form moments for {index.value}")


@cache
def _poly_forms(source, kind):
    """One {power: (c0, c1)} table as integers, built once.

    kind is an IndexKind (expectation cubic) or a SequenceKind.  Returns
    (integer terms, common denominator): the terms are (c0 * den, c1 * den)
    for every power from the highest down to 0, with den the least common
    denominator of every coefficient.
    """
    if isinstance(kind, SequenceKind):
        poly = _SEQUENCE[source][kind]
    elif source is Source.REFERENCE:
        poly = _EXPECTATION_REFERENCE[kind]
    else:
        poly = fitted_expectation_coefficients(kind)
    den = math.lcm(*(c.denominator for pair in poly.values() for c in pair))
    ints = tuple(
        (int(poly[power][0] * den), int(poly[power][1] * den))
        for power in range(max(poly), -1, -1)
    )
    return ints, den


def _eval_poly(source, kind, n, p1):
    """sum (c0 + c1 * p1) * n**power for n >= 1 at the exact value of
    p1 = a/b: a Fraction for exact p1, and for a float p1 the float nearest
    the exact value at Fraction(p1), rounded once."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    value, exact = ProbabilityParams.coerce(p1)
    ints, den = _poly_forms(source, kind)
    a, b = value.as_integer_ratio()
    # the sum over the common denominator den * b, by Horner's rule from the
    # highest power
    total = 0
    for c0, c1 in ints:
        total = total * n + c0 * b + c1 * a
    return Fraction(total, den * b) if exact else total / (den * b)


def expected_index(index, n, p1, source=Source.VERIFIED):
    """Closed-form expected index value of a random chain of n pentagons.

    Parameters
    ----------
    index : IndexKind
        One of gutman, schultz, kf_star, kf_plus.
    n : int
        Number of pentagons, n >= 1.
    p1 : Fraction, int, float, Decimal, str or ProbabilityParams
        Mode-1 attachment probability, read by ProbabilityParams.coerce.
        Exact input ("1/3" included) gives an exact Fraction result; a float
        or a decimal text like "0.3" gives the float nearest the exact value
        at Fraction(p1), rounded once.
    source : Source
        VERIFIED (default) evaluates the cubic fitted from chain values,
        REFERENCE the verbatim reference table.

    Raises ValueError for an index without closed forms, n < 1, or a p1
    that ProbabilityParams.coerce refuses.
    """
    _require_moment_index(index)
    return _eval_poly(source, index, n, p1)


def sequence_values(kind, n, p1, source=Source.VERIFIED):
    """Expected load of the open attachment vertex (sequences A to D)."""
    if not isinstance(kind, SequenceKind):
        kind = SequenceKind(str(kind).upper())
    return _eval_poly(source, kind, n, p1)


@cache
def _squared_slope(index) -> tuple[int, int]:
    """slope**2 of one index as (numerator, denominator).

    At n = 3 the one choice has weight w_2 = 1, so the slope is the gap
    between the all-mode-2 and all-mode-1 chains of three pentagons.
    """
    chains = _deterministic_chains()
    slope = chains[AttachmentMode.MODE2][2].get(index) - chains[AttachmentMode.MODE1][2].get(index)
    return slope.numerator**2, slope.denominator**2


def variance_index(index, n, p1):
    """Closed-form variance of one index over random chains of n pentagons.

    T2 is a sum of independent weighted Bernoulli(1 - p1) choices, so the
    variance is p1(1-p1) * slope**2 * sum_k w_k**2 with
    sum_k w_k**2 = n(n-1)(n-2)((n-1)**2 + 1) / 30.  At n = 3 that sum is 1,
    so variance_index(index, 3, p1) is the variance one choice of weight 1
    adds.  Zero for n <= 2 (the chain is deterministic) and at p1 in
    {0, 1}.  Computed in exact integers over one denominator at the exact
    value of p1 = a/b; float p1 is converted through Fraction(p1) and the
    result rounded once.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_moment_index(index)
    value, exact = ProbabilityParams.coerce(p1)
    a, b = value.as_integer_ratio()
    s_num, s_den = _squared_slope(index)
    num = a * (b - a) * s_num * (n * (n - 1) * (n - 2) * ((n - 1) ** 2 + 1) // 30)
    den = b * b * s_den
    # int / int rounds once, to the float nearest the exact quotient
    return Fraction(num, den) if exact else num / den


def interpolate_polynomial(points, degree):
    """Exact coefficients (ascending powers) through the given points.

    points : iterable of (x, value) with rational values.  The first
    degree + 1 points pin the polynomial via Gaussian elimination on the
    Vandermonde system; any further points must lie on it exactly or a
    ValueError is raised.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    m = degree + 1
    if len(pts) < m:
        raise ValueError("not enough points for the requested degree")
    rows = [[x**j for j in range(m)] + [y] for x, y in pts[:m]]
    for col in range(m):
        pivot = next(i for i in range(col, m) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for i in range(m):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[col])]
    coeffs = tuple(rows[j][m] for j in range(m))
    for x, y in pts[m:]:
        if sum(c * x**j for j, c in enumerate(coeffs)) != y:
            raise ValueError(f"points do not lie on a degree-{degree} polynomial")
    return coeffs


@cache
def _deterministic_chains():
    """{mode: index bundles of the all-mode chains with n = 1..6}, computed
    once per process by the structured matrix engine, one pass per chain."""

    def bundle(blueprint):
        dist, res = structured_metrics(blueprint)
        return compute_indices(build_graph(blueprint), dist, res)

    return {
        mode: tuple(bundle(all_mode_blueprint(n, mode)) for n in range(1, 7))
        for mode in AttachmentMode
    }


@cache
def fitted_expectation_coefficients(index) -> Mapping[int, tuple[Fraction, Fraction]]:
    """Expectation cubic fitted from chain values: the Source.VERIFIED form.

    Takes the structured matrix engine's values of the two deterministic
    chains (all mode 1 for p1 = 1, all mode 2 for p1 = 0) at n = 1..6; four
    points pin each cubic and the last two must confirm it.  Expectation is
    affine in p1 because every index is affine in the mode-2 weight sum T2,
    so the two fits determine the whole {power: (c0, c1)} table, highest
    power first.  Computed once per index and returned as a read-only
    mapping.
    """
    _require_moment_index(index)
    chains = _deterministic_chains()

    def fit(mode):
        points = [(n, value.get(index)) for n, value in enumerate(chains[mode], start=1)]
        return interpolate_polynomial(points, 3)

    at_one = fit(AttachmentMode.MODE1)
    at_zero = fit(AttachmentMode.MODE2)
    return MappingProxyType(
        {
            power: (at_zero[power], at_one[power] - at_zero[power])
            for power in range(3, -1, -1)
        }
    )
