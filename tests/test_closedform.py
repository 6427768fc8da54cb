"""Closed-form moments against the enumeration oracle, both sources."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pentachain import (
    DISCREPANCIES,
    MOMENT_INDICES,
    AttachmentMode,
    IndexKind,
    ProbabilityParams,
    SequenceKind,
    Source,
    affine_in_t2,
    all_mode_blueprint,
    build_graph,
    discrepancies_for,
    enumerate_blueprints,
    exact_distribution,
    expected_index,
    fitted_expectation_coefficients,
    incremental_indices,
    interpolate_polynomial,
    moment_report,
    monte_carlo,
    sample_blueprint,
    sequence_values,
    structured_metrics,
    t2_weights,
    variance_index,
    vertex_id,
)
from pentachain.closedform import _EXPECTATION_REFERENCE, _SEQUENCE

from helpers import enumeration_moments

P_GRID = [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)]
GAPS = {
    IndexKind.GUTMAN: Fraction(144),
    IndexKind.SCHULTZ: Fraction(120),
    IndexKind.KF_STAR: Fraction(288, 5),
    IndexKind.KF_PLUS: Fraction(48),
}


@pytest.mark.parametrize("index", MOMENT_INDICES)
@pytest.mark.parametrize("p", P_GRID)
def test_verified_expectation_equals_oracle(index, p):
    params = ProbabilityParams(p)
    for n in range(1, 7):
        mean, _ = enumeration_moments(index, n, params)
        assert expected_index(index, n, p) == mean


@pytest.mark.parametrize("index", MOMENT_INDICES)
@pytest.mark.parametrize("p", P_GRID)
def test_variance_equals_oracle(index, p):
    params = ProbabilityParams(p)
    for n in range(1, 7):
        _, var = enumeration_moments(index, n, params)
        assert variance_index(index, n, p) == var


def test_reference_source_gaps():
    # the distance-index reference forms are correct; both resistance-index
    # reference forms carry systematic biases, recorded in the registry
    p = Fraction(1, 3)
    for n in range(1, 9):
        for index in (IndexKind.GUTMAN, IndexKind.SCHULTZ):
            assert expected_index(index, n, p, Source.REFERENCE) == expected_index(
                index, n, p
            )
        ref_star = expected_index(IndexKind.KF_STAR, n, p, Source.REFERENCE)
        assert ref_star - expected_index(IndexKind.KF_STAR, n, p) == 48 * (n - 1)
        ref_plus = expected_index(IndexKind.KF_PLUS, n, p, Source.REFERENCE)
        bias = 24 * p * (n - 1) * (n - 2)
        assert ref_plus - expected_index(IndexKind.KF_PLUS, n, p) == bias


def test_registry_covers_the_biased_indices():
    assert discrepancies_for(IndexKind.GUTMAN) == []
    assert discrepancies_for(IndexKind.SCHULTZ) == []
    star_keys = {d.key for d in discrepancies_for(IndexKind.KF_STAR)}
    assert "kf-star-expectation" in star_keys
    plus_keys = {d.key for d in discrepancies_for(IndexKind.KF_PLUS)}
    assert "kf-plus-expectation" in plus_keys
    for key, d in DISCREPANCIES.items():
        assert d.key == key
        assert d.evidence and d.reference_form != d.verified_form


def registry_form(text):
    """A registry form such as "(44 - 8p)n^3 + 48p" as a function of (n, p):
    integers read as Fractions, ^ as a power, and * put between operands
    that stand side by side."""
    token = r"\d+|[np()+\-/^]"
    if re.sub(token + r"|\s", "", text):
        raise ValueError(f"not a polynomial form: {text!r}")
    parts, prev = [], None
    for tok in re.findall(token, text):
        if prev and (prev.isdigit() or prev in "np)") and (tok.isdigit() or tok in "np("):
            parts.append("*")
        if tok.isdigit():
            parts.append(tok if prev == "^" else f"F({tok})")
        else:
            parts.append("**" if tok == "^" else tok)
        prev = tok
    expr = " ".join(parts)
    return lambda n, p: eval(expr, {"F": Fraction, "n": n, "p": p})


# the table each registry entry's two forms were copied from
REGISTRY_TABLES = {
    "kf-plus-expectation": lambda n, p, source: expected_index(IndexKind.KF_PLUS, n, p, source),
    "kf-star-expectation": lambda n, p, source: expected_index(IndexKind.KF_STAR, n, p, source),
    "attachment-resistance-sum": lambda n, p, source: sequence_values(
        SequenceKind.D, n, p, source
    ),
}


@pytest.mark.parametrize("key", REGISTRY_TABLES)
def test_registry_forms_are_their_tables(key):
    # each side is at most cubic in n and affine in p1, so agreement at
    # n = 1..5 and three p1 values makes the form and the table one polynomial
    entry, table = DISCREPANCIES[key], REGISTRY_TABLES[key]
    reference = registry_form(entry.reference_form)
    verified = registry_form(entry.verified_form)
    evidence = re.search(r"reference - verified = ([^;,]+)", entry.evidence)
    gap = registry_form(evidence.group(1)) if evidence else None
    for n in range(1, 6):
        for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
            assert reference(n, p) == table(n, p, Source.REFERENCE), (n, p)
            assert verified(n, p) == table(n, p, Source.VERIFIED), (n, p)
            if gap is not None:
                assert reference(n, p) - verified(n, p) == gap(n, p), (n, p)
    assert (gap is not None) is (key != "attachment-resistance-sum")


def test_registry_form_reading():
    form = registry_form("(264/5 - 48/5 p)n^3 - (47/5 + 96/5 p)n - 1")
    assert form(2, Fraction(1, 2)) == Fraction(264 - 24, 5) * 8 - Fraction(47 + 48, 5) * 2 - 1
    assert registry_form("24p(n-1)(n-2)")(4, Fraction(1, 3)) == 48
    with pytest.raises(ValueError):
        registry_form("n^2 + x")


# The verified expectation cubics as {power: (c0, c1)}, c0 + c1 * p1 the n**power
# coefficient: the distance indices agree with the reference tables, and
# reference minus verified is 48(n-1) for kf_star and 24 p1 (n-1)(n-2) for
# kf_plus.
VERIFIED_CUBICS = {
    IndexKind.GUTMAN: {
        3: (Fraction(72), Fraction(-24)),
        2: (Fraction(-12), Fraction(72)),
        1: (Fraction(1), Fraction(-48)),
        0: (Fraction(-1), Fraction(0)),
    },
    IndexKind.SCHULTZ: {
        3: (Fraction(60), Fraction(-20)),
        2: (Fraction(7), Fraction(60)),
        1: (Fraction(-7), Fraction(-40)),
        0: (Fraction(0), Fraction(0)),
    },
    IndexKind.KF_STAR: {
        3: (Fraction(264, 5), Fraction(-48, 5)),
        2: (Fraction(-12, 5), Fraction(144, 5)),
        1: (Fraction(-47, 5), Fraction(-96, 5)),
        0: (Fraction(-1), Fraction(0)),
    },
    IndexKind.KF_PLUS: {
        3: (Fraction(44), Fraction(-8)),
        2: (Fraction(11), Fraction(24)),
        1: (Fraction(-15), Fraction(-16)),
        0: (Fraction(0), Fraction(0)),
    },
}


@pytest.mark.parametrize("index", MOMENT_INDICES)
def test_fitted_coefficients_reproduce_verified_table(index):
    fitted = fitted_expectation_coefficients(index)
    assert list(fitted.items()) == list(VERIFIED_CUBICS[index].items())
    assert fitted_expectation_coefficients(index) is fitted  # fitted once
    with pytest.raises(TypeError):
        fitted[3] = (Fraction(0), Fraction(0))  # shared, so read-only
    for n in range(1, 9):
        for p in (Fraction(0), Fraction(2, 7), Fraction(1)):
            value = sum(
                (c0 + c1 * p) * Fraction(n) ** power
                for power, (c0, c1) in VERIFIED_CUBICS[index].items()
            )
            assert value == expected_index(index, n, p)


@pytest.mark.parametrize("index", MOMENT_INDICES)
@pytest.mark.parametrize("p,mode", [(1, AttachmentMode.MODE1), (0, AttachmentMode.MODE2)])
def test_degenerate_chains_match_exactly(index, p, mode):
    for n in range(1, 51):
        value = incremental_indices(all_mode_blueprint(n, mode)).get(index)
        assert expected_index(index, n, Fraction(p)) == value
        assert variance_index(index, n, Fraction(p)) == 0


def test_variance_spot_values():
    half = Fraction(1, 2)
    assert variance_index(IndexKind.GUTMAN, 3, half) == 5184
    assert variance_index(IndexKind.KF_PLUS, 3, half) == 576
    for index in MOMENT_INDICES:
        for p in P_GRID:
            assert variance_index(index, 1, p) == 0
            assert variance_index(index, 2, p) == 0
        # exact zeros on the float path as well, fifths included
        assert variance_index(index, 1, 0.5) == 0.0
        assert variance_index(index, 2, 0.5) == 0.0
        assert variance_index(index, 7, 0.0) == 0.0
        assert variance_index(index, 7, 1.0) == 0.0


def test_variance_nonnegative_on_fine_grid():
    for index in MOMENT_INDICES:
        for n in (3, 5, 10, 25, 50):
            for i in range(1, 100):
                assert variance_index(index, n, i / 100) >= 0.0


def test_variance_leading_order():
    # quintic growth: Var ~ step_variance * n^5 / 30, where the step variance
    # is the variance at n = 3, whose one weight is 1
    n = 10**4
    for index in MOMENT_INDICES:
        step_variance = variance_index(index, 3, 0.3)
        ratio = variance_index(index, n, 0.3) / (step_variance * n**5 / 30)
        assert abs(ratio - 1) < 0.02


@pytest.mark.parametrize("index", MOMENT_INDICES)
def test_moment_params_structure(index):
    # at n = 3 the one choice has weight 1: the variance is p1(1-p1) * slope^2
    p = Fraction(2, 5)
    assert variance_index(index, 3, p) == p * (1 - p) * GAPS[index] ** 2


@given(st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=80)
def test_moment_params_bounds(p):
    for index in MOMENT_INDICES:
        step_variance = variance_index(index, 3, p)
        assert step_variance >= 0
        if p in (0.0, 1.0):
            assert step_variance == 0


def test_sequence_values():
    p = Fraction(1, 4)
    assert sequence_values("A", 1, p) == 12
    assert sequence_values("B", 1, p) == 6
    assert sequence_values("C", 1, p) == 8
    assert sequence_values("D", 1, p) == 4
    assert sequence_values("C", 2, p) == (207 - 24 * p) / Fraction(5)
    # the attachment-resistance sum is the one sequence the two sources
    # disagree on: verified 19 - 2p at the second pentagon, reference 19 + 2p
    assert sequence_values("D", 2, p) == 19 - 2 * p
    assert sequence_values("D", 2, p, Source.REFERENCE) == 19 + 2 * p
    for kind in "ABC":
        assert sequence_values(kind, 2, p, Source.REFERENCE) == sequence_values(
            kind, 2, p
        )


def test_sequence_oracle():
    # A..D are expected weighted metric row sums seen from the vertex the
    # next bridge would leave: the two candidate attachment vertices of the
    # last pentagon, mixed with probabilities p and 1 - p (pentagon 1 always
    # bridges from its entry vertex)
    p = Fraction(1, 3)
    params = ProbabilityParams(p)
    for n in (1, 2, 3, 4):
        acc = {k: Fraction(0) for k in "ABCD"}
        for bp, prob in enumerate_blueprints(n, params):
            g = build_graph(bp)
            dist, res = structured_metrics(bp)
            if n == 1:
                candidates = [(Fraction(1), vertex_id(1, 1))]
            else:
                candidates = [(p, vertex_id(n, 2)), (1 - p, vertex_id(n, 3))]
            degs = g.degrees
            V = g.vertex_count
            for weight, u in candidates:
                w = prob * weight
                acc["A"] += w * sum(degs[v] * dist.entry(u, v) for v in range(V))
                acc["B"] += w * sum(dist.entry(u, v) for v in range(V))
                acc["C"] += w * sum(degs[v] * res.entry(u, v) for v in range(V))
                acc["D"] += w * sum(res.entry(u, v) for v in range(V))
        for kind in "ABCD":
            assert acc[kind] == sequence_values(kind, n, p)


def test_expectation_partial_order():
    # degree-weighted dominates degree-summed, distance dominates resistance
    for n in range(1, 13):
        for p in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            gut = expected_index(IndexKind.GUTMAN, n, p)
            sch = expected_index(IndexKind.SCHULTZ, n, p)
            star = expected_index(IndexKind.KF_STAR, n, p)
            plus = expected_index(IndexKind.KF_PLUS, n, p)
            assert gut >= sch
            assert gut >= star
            assert sch >= plus
            assert star >= plus
    # no total order: the degree-summed distance index and the
    # degree-weighted resistance index cross
    assert expected_index(IndexKind.SCHULTZ, 2, Fraction(1, 2)) > expected_index(
        IndexKind.KF_STAR, 2, Fraction(1, 2)
    )
    assert expected_index(IndexKind.KF_STAR, 50, Fraction(9, 10)) > expected_index(
        IndexKind.SCHULTZ, 50, Fraction(9, 10)
    )


def test_per_realization_domination():
    p = ProbabilityParams(Fraction(1, 2))
    for n in range(1, 6):
        for bp, _ in enumerate_blueprints(n, p):
            b = incremental_indices(bp)
            assert b.wiener >= b.kirchhoff
            assert b.gutman >= b.kf_star
            assert b.schultz >= b.kf_plus


def test_interpolate_polynomial():
    # y = 2x^2 - 3x + 5
    pts = [(Fraction(x), Fraction(2 * x * x - 3 * x + 5)) for x in range(4)]
    coeffs = interpolate_polynomial(pts, 2)  # ascending powers
    assert coeffs == (Fraction(5), Fraction(-3), Fraction(2))
    with pytest.raises(ValueError):
        interpolate_polynomial(pts[:3] + [(Fraction(7), Fraction(0))], 2)
    with pytest.raises(ValueError):
        interpolate_polynomial(pts[:2], 2)  # underdetermined


def test_float_path_matches_exact():
    for index in MOMENT_INDICES:
        exact = expected_index(index, 9, Fraction(3, 10))
        assert math.isclose(expected_index(index, 9, 0.3), float(exact), rel_tol=1e-12)
        exact_var = variance_index(index, 9, Fraction(3, 10))
        assert math.isclose(variance_index(index, 9, 0.3), float(exact_var), rel_tol=1e-12)


def test_float_variance_is_the_exact_value_rounded_once():
    for index in MOMENT_INDICES:
        for n in (3, 4, 9, 30, 1000):
            for i in range(1, 20):
                p = i / 20
                exact = variance_index(index, n, Fraction(p))
                assert variance_index(index, n, p) == float(exact)


EXACT_P1 = [0, 1, Fraction(1, 7), Fraction(4, 5), Fraction(0.3)]
FLOAT_P1 = [0.0, 1.0, 1 / 7, 0.8, 0.3, 0.37]


def _tables():
    """(function, kind, source, {power: (c0, c1)} table) for every evaluated table."""
    for index in MOMENT_INDICES:
        yield expected_index, index, Source.REFERENCE, _EXPECTATION_REFERENCE[index]
        yield expected_index, index, Source.VERIFIED, fitted_expectation_coefficients(index)
    for kind in SequenceKind:
        for source in Source:
            yield sequence_values, kind, source, _SEQUENCE[source][kind]


def _fraction_terms(poly, n, p):
    return sum((c0 + c1 * p) * Fraction(n) ** power for power, (c0, c1) in poly.items())


def _float_variance(index, n, p1):
    # reference: the exact Fraction value at Fraction(p1), rounded once
    p = Fraction(p1)
    _, slope = affine_in_t2(index, 1)
    step = p * (1 - p) * slope * slope
    return float(step * (n * (n - 1) * (n - 2) * ((n - 1) ** 2 + 1) // 30)), float(step)


def test_exact_closed_forms_equal_term_by_term_fractions():
    for fn, kind, source, poly in _tables():
        for p in EXACT_P1:
            for n in range(1, 61):
                value = fn(kind, n, p, source)
                assert type(value) is Fraction
                assert value == _fraction_terms(poly, n, Fraction(p))
    for index in MOMENT_INDICES:
        _, slope = affine_in_t2(index, 1)
        for p in map(Fraction, EXACT_P1):
            assert variance_index(index, 3, p) == p * (1 - p) * slope**2
            for n in range(1, 61):
                sum_w2 = sum(w * w for w in t2_weights(n).tolist())
                assert variance_index(index, n, p) == p * (1 - p) * slope**2 * sum_w2


def test_float_closed_forms_are_the_float_loop_bit_for_bit():
    # reference: the exact Fraction value at Fraction(p), rounded once
    for fn, kind, source, poly in _tables():
        for p in FLOAT_P1:
            for n in range(1, 61):
                exact = _fraction_terms(poly, n, Fraction(p))
                assert fn(kind, n, p, source).hex() == float(exact).hex()
    for index in MOMENT_INDICES:
        for p in FLOAT_P1:
            assert variance_index(index, 3, p).hex() == _float_variance(index, 3, p)[1].hex()
            for n in range(1, 61):
                assert variance_index(index, n, p).hex() == _float_variance(index, n, p)[0].hex()


def test_numpy_integer_n_stays_exact():
    # the integer forms must not fall into int64 arithmetic and wrap
    n = 10**6
    for index in MOMENT_INDICES:
        for fn in (expected_index, variance_index):
            assert fn(index, np.int64(n), Fraction(1, 3)) == fn(index, n, Fraction(1, 3))
    with pytest.raises(TypeError):
        expected_index(IndexKind.GUTMAN, 3.0, Fraction(1, 2))


def test_moment_index_validation():
    with pytest.raises(ValueError):
        expected_index(IndexKind.WIENER, 3, Fraction(1, 2))
    with pytest.raises(ValueError):
        variance_index(IndexKind.KIRCHHOFF, 3, Fraction(1, 2))
    with pytest.raises(ValueError):
        expected_index(IndexKind.GUTMAN, 3, 1.5)
    with pytest.raises(ValueError):
        variance_index(IndexKind.GUTMAN, 3, -0.2)


# (p1, checked value, exact) for accepted input, (p1, error message, None)
# for refused input
P1_TABLE = [
    (Fraction(2, 7), Fraction(2, 7), True),
    (ProbabilityParams(Fraction(2, 7)), Fraction(2, 7), True),
    (1, 1, True),
    (True, Fraction(1), True),
    (0.3, 0.3, False),
    (np.float64(0.3), 0.3, False),
    (Decimal("0.5"), Fraction(1, 2), True),
    ("1/3", Fraction(1, 3), True),
    ("0.3", 0.3, False),
    ("1/0", "p1 has a zero denominator: '1/0'", None),
    ("4/3", "p1 must lie in [0, 1], got 4/3", None),
    (1.5, "p1 must lie in [0, 1], got 1.5", None),
    (math.nan, "p1 must lie in [0, 1], got nan", None),
    (math.inf, "p1 must lie in [0, 1], got inf", None),
    (Decimal("Infinity"), "p1 must lie in [0, 1], got Infinity", None),
    (Decimal("-Infinity"), "p1 must lie in [0, 1], got -Infinity", None),
    (Decimal("NaN"), "p1 must lie in [0, 1], got NaN", None),
    (Fraction(8, 7), "p1 must lie in [0, 1], got 8/7", None),
    (Fraction(-1, 7), "p1 must lie in [0, 1], got -1/7", None),
    (2, "p1 must lie in [0, 1], got 2", None),
    (-1, "p1 must lie in [0, 1], got -1", None),
]

P1_ENTRY_POINTS = {
    "ProbabilityParams": ProbabilityParams,
    "expected_index": lambda p1: expected_index(IndexKind.GUTMAN, 5, p1),
    "variance_index": lambda p1: variance_index(IndexKind.GUTMAN, 5, p1),
    "exact_distribution": lambda p1: exact_distribution(IndexKind.GUTMAN, 5, p1),
    "monte_carlo": lambda p1: monte_carlo(IndexKind.GUTMAN, 5, p1, 10, 0),
    "moment_report": lambda p1: moment_report(5, p1),
    "enumerate_blueprints": lambda p1: list(enumerate_blueprints(5, p1)),
    "sample_blueprint": lambda p1: sample_blueprint(5, p1, np.random.default_rng(0)),
}


def test_every_p1_entry_point_reads_p1_alike():
    for p1, want, exact in P1_TABLE:
        if exact is None:
            for name, entry in P1_ENTRY_POINTS.items():
                with pytest.raises(ValueError) as info:
                    entry(p1)
                assert str(info.value) == want, f"{name}({p1!r})"
            continue
        value, got_exact = ProbabilityParams.coerce(p1)
        assert value == want and type(value) is type(want) and got_exact is exact, repr(p1)
        params = ProbabilityParams(p1)
        assert params.p1 == want and type(params.p1) is type(want), repr(p1)
        assert params.is_exact is exact, repr(p1)
        closed_forms = [
            expected_index(IndexKind.GUTMAN, 5, p1),
            variance_index(IndexKind.GUTMAN, 5, p1),
            *(getattr(row, f) for row in moment_report(5, p1).rows
              for f in ("expected_reference", "expected_verified", "variance")),
        ]
        assert all(isinstance(x, float) is not exact for x in closed_forms), repr(p1)
        assert moment_report(5, p1) == moment_report(5, want), repr(p1)
        # the exact law reads every p1 exactly, a float at its binary value
        assert exact_distribution(IndexKind.GUTMAN, 5, p1).p1 == Fraction(want), repr(p1)
        assert monte_carlo(IndexKind.GUTMAN, 5, p1, 10, 0) == monte_carlo(
            IndexKind.GUTMAN, 5, want, 10, 0
        ), repr(p1)
        probs = [prob for _, prob in enumerate_blueprints(5, p1)]
        assert all(isinstance(prob, float) is not exact for prob in probs), repr(p1)
        assert not exact or sum(probs) == 1, repr(p1)
        # from the same generator state, a bare p1 draws the chain its params draw
        assert sample_blueprint(40, p1, np.random.default_rng(12)) == sample_blueprint(
            40, ProbabilityParams(p1), np.random.default_rng(12)
        ), repr(p1)
    # a value checked once passes again as the same object
    p = Fraction(2, 7)
    for given_p1 in (p, ProbabilityParams(p)):
        value, exact = ProbabilityParams.coerce(given_p1)
        assert value is p and exact
