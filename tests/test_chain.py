"""Blueprint, probability, and graph construction invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pentachain import (
    AttachmentMode,
    ChainBlueprint,
    ProbabilityParams,
    all_mode_blueprint,
    attachment_positions,
    build_graph,
    enumerate_blueprints,
    sample_blueprint,
    vertex_id,
)

M1 = AttachmentMode.MODE1
M2 = AttachmentMode.MODE2


def blueprints(n_max):
    st_mode = st.sampled_from((M1, M2))
    return st.integers(1, n_max).flatmap(
        lambda n: st.builds(
            ChainBlueprint,
            n=st.just(n),
            choices=st.tuples(*[st_mode] * max(0, n - 2)),
        )
    )


def test_vertex_id_layout():
    assert vertex_id(1, 1) == 0
    assert vertex_id(1, 5) == 4
    assert vertex_id(2, 1) == 5
    assert vertex_id(3, 4) == 13
    for k in range(1, 4):
        for j in range(1, 6):
            assert divmod(vertex_id(k, j), 5) == (k - 1, j - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("mode", [M1, M2])
def test_graph_shape(n, mode):
    g = build_graph(all_mode_blueprint(n, mode))
    assert g.vertex_count == 5 * n
    assert g.edge_count == 6 * n - 1
    assert sum(g.degrees) == 12 * n - 2
    assert set(g.degrees) <= {2, 3}
    assert sum(1 for d in g.degrees if d == 3) == 2 * (n - 1)
    assert len(g.bridges) == n - 1


def test_bridges_are_the_attachment_edges():
    bp = ChainBlueprint(n=4, choices=(M1, M2))
    g = build_graph(bp)
    # pentagon 1 bridges from x_{1,1}, pentagon 2 from x_{2,2}, pentagon 3
    # from x_{3,3}; every bridge lands on the next pentagon's entry vertex
    assert g.bridges == (
        (vertex_id(1, 1), vertex_id(2, 1)),
        (vertex_id(2, 2), vertex_id(3, 1)),
        (vertex_id(3, 3), vertex_id(4, 1)),
    )
    assert attachment_positions(bp) == [0, 1, 2]
    assert attachment_positions(ChainBlueprint(n=1)) == []


def test_adjacency_is_sorted_and_symmetric():
    g = build_graph(ChainBlueprint(n=3, choices=(M1,)))
    for u, nbrs in enumerate(g.adjacency):
        assert list(nbrs) == sorted(nbrs)
        for v in nbrs:
            assert u in g.adjacency[v]
    assert g.edge_list_text().count("\n") == g.edge_count


def test_blueprint_validation():
    with pytest.raises(ValueError):
        ChainBlueprint(n=0)
    with pytest.raises(ValueError):
        ChainBlueprint(n=2, choices=(M1,))
    with pytest.raises(ValueError):
        ChainBlueprint(n=5, choices=(M1,))
    bp = ChainBlueprint(n=4, choices=[M1, M2])  # list coerced
    assert bp.choices == (M1, M2)


@given(blueprints(10))
@settings(max_examples=60)
def test_blueprint_json_round_trip(bp):
    assert ChainBlueprint.from_json(bp.to_json()) == bp


def test_probability_parse():
    exact = ProbabilityParams.parse("2/5")
    assert exact.is_exact and exact.p1 == Fraction(2, 5)
    assert exact.as_float() == 0.4
    inexact = ProbabilityParams.parse("0.3")
    assert not inexact.is_exact
    for bad in ("-0.1", "3/2"):
        with pytest.raises(ValueError):
            ProbabilityParams.parse(bad)


def test_sample_blueprint_deterministic():
    p = ProbabilityParams(Fraction(1, 2))

    def draw():
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11)))
        return sample_blueprint(9, p, rng)

    assert draw() == draw()
    assert len(draw().choices) == 7


def test_sample_blueprint_degenerate_probs():
    rng = np.random.Generator(np.random.PCG64(1))
    assert sample_blueprint(6, ProbabilityParams(Fraction(1)), rng).choices == (M1,) * 4
    assert sample_blueprint(6, ProbabilityParams(Fraction(0)), rng).choices == (M2,) * 4
    assert sample_blueprint(2, ProbabilityParams(0.5), rng) == ChainBlueprint(n=2)


def test_sample_blueprint_consumes_fixed_draws():
    # n - 2 uniforms per call, so a trailing draw matches a manual skip
    rng_a = np.random.Generator(np.random.PCG64(42))
    sample_blueprint(7, ProbabilityParams(0.5), rng_a)
    rng_b = np.random.Generator(np.random.PCG64(42))
    rng_b.random(5)
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (5, 8), (6, 16)])
def test_enumeration_count(n, count):
    items = list(enumerate_blueprints(n, ProbabilityParams(Fraction(1, 3))))
    assert len(items) == count
    assert len({bp for bp, _ in items}) == count
    assert sum(prob for _, prob in items) == 1  # exact in rational mode


def test_enumeration_float_probs_sum_close():
    total = sum(prob for _, prob in enumerate_blueprints(8, ProbabilityParams(0.3)))
    assert math.isclose(total, 1.0, rel_tol=1e-12)


def test_enumeration_cap():
    # lazy and unbounded: the caller takes what it needs of 2^38 blueprints
    first, prob = next(enumerate_blueprints(40, ProbabilityParams(Fraction(1, 2))))
    assert first == all_mode_blueprint(40, M1)
    assert prob == Fraction(1, 2**38)
    with pytest.raises(ValueError):
        next(enumerate_blueprints(0, ProbabilityParams(0.5)))


def test_all_mode_blueprint():
    assert all_mode_blueprint(5, M2).choices == (M2, M2, M2)
    assert all_mode_blueprint(1, M1) == ChainBlueprint(n=1)
