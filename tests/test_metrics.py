"""Distance and resistance engines against each other and hand values."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import pentachain.metrics as metrics
from pentachain import (
    AttachmentMode,
    ChainBlueprint,
    MetricKind,
    MetricMatrix,
    PentagonChainGraph,
    all_mode_blueprint,
    bfs_all_pairs,
    build_graph,
    enumerate_blueprints,
    laplacian_resistance,
    sample_blueprint,
    structured_metrics,
    ProbabilityParams,
)

from helpers import bfs_distances, resistance_certificate

M1 = AttachmentMode.MODE1
M2 = AttachmentMode.MODE2

PENTAGON = ChainBlueprint(n=1)


def small_blueprints(n_max):
    p = ProbabilityParams(Fraction(1, 2))
    for n in range(1, n_max + 1):
        for bp, _ in enumerate_blueprints(n, p):
            yield bp


def test_single_pentagon_rows():
    dist = bfs_all_pairs(build_graph(PENTAGON))
    assert dist.kind is MetricKind.DISTANCE and dist.denominator == 1
    assert list(dist.data[0]) == [0, 1, 2, 2, 1]
    _, res = structured_metrics(PENTAGON)
    assert res.kind is MetricKind.RESISTANCE and res.denominator == 5
    # cycle resistance l(5 - l)/5, stored as numerators over 5
    assert list(res.data[0]) == [0, 4, 6, 6, 4]
    assert res.entry(0, 2) == Fraction(6, 5)
    assert res.is_exact and dist.is_exact


@pytest.mark.parametrize("bp", list(small_blueprints(5)), ids=lambda b: b.to_json())
def test_engines_agree(bp):
    g = build_graph(bp)
    dist_s, res_s = structured_metrics(bp)
    assert np.array_equal(bfs_all_pairs(g).data, dist_s.data)
    res_l = laplacian_resistance(g)
    assert not res_l.is_exact
    assert np.abs(res_l.as_float() - res_s.as_float()).max() <= 1e-9


@pytest.mark.parametrize("bp", [PENTAGON, ChainBlueprint(n=4, choices=(M2, M1))])
def test_matrix_shape_invariants(bp):
    dist, res = structured_metrics(bp)
    for m in (dist, res):
        assert m.size == 5 * bp.n
        assert np.array_equal(m.data, m.data.T)
        assert not m.data.diagonal().any()
        assert (m.data[~np.eye(m.size, dtype=bool)] > 0).all()
    # resistance never exceeds distance (equality on bridge pairs)
    assert (res.as_float() <= dist.as_float() + 1e-12).all()


def test_dense_engine_cap():
    # 1,001 pentagons are 5,005 vertices: refused before the dense matrix exists
    g = build_graph(all_mode_blueprint(1001, M1))
    with pytest.raises(ValueError, match="capped at 5000 vertices, got 5005"):
        laplacian_resistance(g)


def test_dense_cap_boundary():
    metrics._check_dense_size(5000)  # at the cap: accepted
    with pytest.raises(ValueError, match="capped at 5000 vertices, got 5001"):
        metrics._check_dense_size(5001)


def test_two_pentagon_hand_values():
    bp = ChainBlueprint(n=2)
    dist, res = structured_metrics(bp)
    # vertices 2 and 7 sit two cycle steps past each end of the bridge
    assert dist.entry(2, 7) == 5
    assert res.entry(2, 7) == Fraction(17, 5)
    assert dist.total() == 115
    assert res.total() == 85
    # bridge endpoints: series law collapses to the single edge
    assert dist.entry(0, 5) == 1
    assert res.entry(0, 5) == 1


def test_total_counts_unordered_pairs():
    dist, _ = structured_metrics(PENTAGON)
    assert dist.total() == Fraction(15)
    by_hand = sum(
        dist.entry(u, v) for u, v in itertools.combinations(range(5), 2)
    )
    assert by_hand == 15


def hand_built(adjacency):
    """A graph object carrying only an adjacency; its blueprint is a lone
    pentagon, which the adjacency-only engines must ignore."""
    return PentagonChainGraph(
        n=1,
        blueprint=PENTAGON,
        adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
        bridges=(),
    )


def assert_bfs_matches_oracle(g):
    dist = bfs_all_pairs(g)
    assert dist.data.dtype == np.int64 and dist.denominator == 1
    assert np.array_equal(dist.data, bfs_distances(g))


def test_bfs_matches_queue_oracle_on_every_short_chain():
    for bp in small_blueprints(7):
        assert_bfs_matches_oracle(build_graph(bp))


def test_bfs_matches_queue_oracle_on_random_chains():
    rng = np.random.Generator(np.random.PCG64(2024))
    p = ProbabilityParams(Fraction(1, 3))
    for _ in range(30):
        assert_bfs_matches_oracle(build_graph(sample_blueprint(int(rng.integers(1, 61)), p, rng)))


def test_bfs_matches_queue_oracle_on_longest_chain():
    assert_bfs_matches_oracle(build_graph(all_mode_blueprint(200, M2)))


def test_chain_graphs_have_unique_shortest_paths():
    # bfs_all_pairs does no work twice only because of this: from any source,
    # every other vertex has exactly one neighbour one step nearer
    for bp in small_blueprints(7):
        g = build_graph(bp)
        dist = bfs_distances(g)
        for v, nbrs in enumerate(g.adjacency):
            nearer = (dist[:, list(nbrs)] == dist[:, [v]] - 1).sum(axis=1)
            assert np.array_equal(nearer, np.arange(len(dist)) != v)


def test_bfs_matches_queue_oracle_on_a_grid():
    # a 3 x 4 grid is not a chain graph: its 4-cycles give pairs several
    # shortest paths, so frontier cells repeat and the distances must not move
    rows, cols = 3, 4
    adjacency = [[] for _ in range(rows * cols)]
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for v in ([u + 1] if c + 1 < cols else []) + ([u + cols] if r + 1 < rows else []):
                adjacency[u].append(v)
                adjacency[v].append(u)
    g = hand_built(adjacency)
    assert_bfs_matches_oracle(g)
    # grid distance is the Manhattan distance
    r, c = np.divmod(np.arange(rows * cols), cols)
    manhattan = np.abs(r[:, None] - r[None, :]) + np.abs(c[:, None] - c[None, :])
    assert np.array_equal(bfs_all_pairs(g).data, manhattan)


def test_bfs_refuses_a_disconnected_graph():
    two_triangles = [(1, 2), (0, 2), (0, 1), (4, 5), (3, 5), (3, 4)]
    with pytest.raises(ValueError, match="not connected"):
        bfs_all_pairs(hand_built(two_triangles))


def certificate_chains():
    yield from small_blueprints(7)
    rng = np.random.Generator(np.random.PCG64(7))
    p = ProbabilityParams(Fraction(1, 2))
    for _ in range(30):
        yield sample_blueprint(int(rng.integers(8, 61)), p, rng)
    # the float Laplacian check is weakest here: gap about 2.7e-9
    yield all_mode_blueprint(200, M2)


def test_structured_resistance_passes_the_exact_certificate():
    for bp in certificate_chains():
        assert resistance_certificate(build_graph(bp), structured_metrics(bp)[1]), bp.to_json()


@pytest.mark.parametrize(
    "bp",
    [ChainBlueprint(n=4, choices=(M2, M1)), all_mode_blueprint(200, M2)],
    ids=lambda b: f"n{b.n}",
)
def test_resistance_certificate_catches_one_corrupted_entry(bp):
    g = build_graph(bp)
    _, res = structured_metrics(bp)
    assert resistance_certificate(g, res)
    u, v = 1, res.size - 2
    data = res.data.copy()
    data[u, v] += 1  # r(u, v) moves by 1/5, symmetrically
    data[v, u] += 1
    assert not resistance_certificate(g, MetricMatrix(res.size, res.kind, data, res.denominator))
    data = res.data.copy()
    data[u, v] += 1  # one-sided: no longer symmetric
    assert not resistance_certificate(g, MetricMatrix(res.size, res.kind, data, res.denominator))


def laplacian_adjacency_by_rows(g):
    """The Laplacian engine's dense adjacency, built one row at a time."""
    V = g.vertex_count
    adj = np.zeros((V, V), dtype=np.float64)
    for u, nbrs in enumerate(g.adjacency):
        adj[u, list(nbrs)] = 1.0
    return adj


@pytest.mark.parametrize(
    "bp",
    [PENTAGON, ChainBlueprint(n=5, choices=(M1, M2, M1)), all_mode_blueprint(30, M2)],
    ids=lambda b: f"n{b.n}",
)
def test_laplacian_is_bit_identical_to_the_row_by_row_build(bp):
    g = build_graph(bp)
    adj = laplacian_adjacency_by_rows(g)
    lap = np.diag(adj.sum(axis=1)) - adj
    M = np.linalg.inv(lap + 1.0 / g.vertex_count)
    d = np.diag(M)
    res = d[:, None] + d[None, :] - 2.0 * M
    res = (res + res.T) / 2.0
    np.fill_diagonal(res, 0.0)
    assert np.array_equal(laplacian_resistance(g).data, res)


def test_bfs_refuses_a_graph_past_the_dense_cap():
    # V = 5005: the cell table alone would take 8 * 3 * V^2 bytes, about 600 MB
    g = build_graph(all_mode_blueprint(1001, M2))
    with pytest.raises(ValueError, match="capped at 5000 vertices, got 5005"):
        bfs_all_pairs(g)
