"""Index engines: frozen values, cross-engine equality, affine structure."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import pentachain.indices as indices_mod

from pentachain import (
    AttachmentMode,
    ChainBlueprint,
    IndexBundle,
    IndexKind,
    ProbabilityParams,
    affine_in_t2,
    all_mode_blueprint,
    bfs_all_pairs,
    build_graph,
    compute_indices,
    enumerate_blueprints,
    incremental_indices,
    laplacian_resistance,
    sample_blueprint,
    structured_metrics,
    t2_of_blueprint,
    t2_weights,
)

from helpers import carry_indices, pair_loop_indices

M1 = AttachmentMode.MODE1
M2 = AttachmentMode.MODE2

# hand- and matrix-checked values, frozen: chains of one and two pentagons
PG1 = {
    IndexKind.WIENER: 15,
    IndexKind.GUTMAN: 60,
    IndexKind.SCHULTZ: 60,
    IndexKind.KIRCHHOFF: 10,
    IndexKind.KF_STAR: 40,
    IndexKind.KF_PLUS: 40,
}
PG2 = {
    IndexKind.WIENER: 115,
    IndexKind.GUTMAN: 529,
    IndexKind.SCHULTZ: 494,
    IndexKind.KIRCHHOFF: 85,
    IndexKind.KF_STAR: 393,
    IndexKind.KF_PLUS: 366,
}
# per-step gap between the two attachment modes (mode-2 minus mode-1 carry
# growth), constant in k for every index
MODE_GAP = {
    IndexKind.WIENER: 25,
    IndexKind.GUTMAN: 144,
    IndexKind.SCHULTZ: 120,
    IndexKind.KIRCHHOFF: 10,
    IndexKind.KF_STAR: Fraction(288, 5),
    IndexKind.KF_PLUS: 48,
}


def matrix_indices(bp):
    return compute_indices(build_graph(bp), *structured_metrics(bp))


@pytest.mark.parametrize("values,n", [(PG1, 1), (PG2, 2)])
def test_frozen_values(values, n):
    bp = ChainBlueprint(n=n)
    for bundle in (matrix_indices(bp), incremental_indices(bp)):
        for kind, value in values.items():
            assert bundle.get(kind) == value


def test_three_pentagon_values_both_modes():
    low = incremental_indices(ChainBlueprint(n=3, choices=(M1,)))
    high = incremental_indices(ChainBlueprint(n=3, choices=(M2,)))
    assert low.gutman == 1694 and high.gutman == 1838
    assert low.kf_plus == 1194 and high.kf_plus == 1242
    assert low.kf_star == Fraction(6586, 5) and high.kf_star == Fraction(6874, 5)
    assert low.wiener == 350 and high.wiener == 375
    assert low.kirchhoff == 270 and high.kirchhoff == 280
    for kind in IndexKind:
        assert high.get(kind) - low.get(kind) == MODE_GAP[kind]


def test_exhaustive_engine_equality():
    p = ProbabilityParams(Fraction(1, 2))
    for n in range(1, 7):
        for bp, _ in enumerate_blueprints(n, p):
            matrix = matrix_indices(bp)
            assert matrix == incremental_indices(bp)
            assert matrix == carry_indices(bp)


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.builds(
            ChainBlueprint,
            n=st.just(n),
            choices=st.tuples(*[st.sampled_from((M1, M2))] * max(0, n - 2)),
        )
    )
)
@settings(max_examples=25, deadline=None)
def test_random_engine_equality(bp):
    assert matrix_indices(bp) == incremental_indices(bp)


def pair_loop_chains():
    p = ProbabilityParams(Fraction(1, 2))
    for n in range(1, 7):
        for bp, _ in enumerate_blueprints(n, p):
            yield bp
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(20):
        yield sample_blueprint(int(rng.integers(1, 31)), p, rng)


def test_compute_indices_equals_the_pair_loop():
    # pins the degree-vector sums deg.D.deg and 2 * 1.D.deg to the definitions
    for bp in pair_loop_chains():
        g = build_graph(bp)
        dist, res = structured_metrics(bp)
        assert compute_indices(g, dist, res) == pair_loop_indices(g, dist, res), bp.to_json()


def test_compute_indices_rejects_bad_matrices():
    bp = ChainBlueprint(n=2)
    g = build_graph(bp)
    dist, res = structured_metrics(bp)
    with pytest.raises(ValueError):
        compute_indices(g, dist, laplacian_resistance(g))  # float matrix
    with pytest.raises(ValueError):
        compute_indices(g, res, dist)  # kinds swapped
    g3 = build_graph(ChainBlueprint(n=3, choices=(M1,)))
    with pytest.raises(ValueError):
        compute_indices(g3, dist, res)  # size mismatch


def test_bundle_json_round_trip():
    bundle = incremental_indices(ChainBlueprint(n=3, choices=(M2,)))
    again = IndexBundle.from_json(bundle.to_json())
    assert again == bundle
    assert '"kf_star": "6874/5"' in bundle.to_json()


def test_mode_step_constants():
    # per-step carry growth (slope1, icept1, slope2, icept2) of the recurrence table
    def mode_step_constants(kind):
        _, _, a1, b1, a2, b2, _, _, scale = indices_mod._REC[kind]
        return tuple(Fraction(v, scale) for v in (a1, b1, a2, b2))

    assert mode_step_constants(IndexKind.GUTMAN) == (288, 156, 432, 300)
    assert mode_step_constants(IndexKind.KF_STAR) == (
        Fraction(1296, 5),
        Fraction(876, 5),
        Fraction(1584, 5),
        Fraction(1164, 5),
    )
    for kind in IndexKind:
        a1, b1, a2, b2 = mode_step_constants(kind)
        assert a2 - a1 == b2 - b1 == MODE_GAP[kind]


def test_t2_weights_and_statistic():
    assert list(t2_weights(6)) == [4, 6, 6, 4]
    for n in range(1, 12):
        total = int(t2_weights(n).sum())
        assert total == n * (n - 1) * (n - 2) // 6
        assert t2_of_blueprint(all_mode_blueprint(n, M2)) == total
        assert t2_of_blueprint(all_mode_blueprint(n, M1)) == 0


def test_t2_is_exact_past_int64():
    # C(n, 3) = 1.07e19 > 2^63 at n = 4e6
    n = 4_000_000
    assert t2_of_blueprint(all_mode_blueprint(n, M2)) == math.comb(n, 3)


def test_affine_form_refuses_a_broken_gap(monkeypatch):
    row = list(indices_mod._REC[IndexKind.GUTMAN])
    row[4] += 1  # slope2 no longer exceeds slope1 by the intercept gap
    monkeypatch.setitem(indices_mod._REC, IndexKind.GUTMAN, tuple(row))
    with pytest.raises(ArithmeticError):
        affine_in_t2(IndexKind.GUTMAN, 5)


def test_affine_representation_exhaustive():
    # every index is base + slope * t2 over all realizations of one length
    n = 6
    for kind in IndexKind:
        base, slope = affine_in_t2(kind, n)
        assert slope == MODE_GAP[kind]
        for bp, _ in enumerate_blueprints(n, ProbabilityParams(Fraction(1, 2))):
            expected = base + slope * t2_of_blueprint(bp)
            assert incremental_indices(bp).get(kind) == expected


def test_scalar_and_affine_paths_agree():
    # the carry recurrence walked step by step (test oracle) against the
    # affine-in-T2 engine, on a short chain and past the old walk's range
    for n in (40, 5000):
        bp = ChainBlueprint(n=n, choices=(M1, M2) * ((n - 2) // 2))
        assert incremental_indices(bp) == carry_indices(bp)
    short = ChainBlueprint(n=40, choices=(M1, M2) * 19)
    assert incremental_indices(short) == matrix_indices(short)


def test_long_chain_values_are_exact():
    bundle = incremental_indices(all_mode_blueprint(5000, M2))
    assert isinstance(bundle.wiener, Fraction)
    assert bundle.kf_star.denominator in (1, 5)
    assert bundle.gutman > bundle.schultz > 0
