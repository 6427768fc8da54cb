"""All-pairs distance and resistance matrices by independent engines.

Three engines, deliberately redundant so they can check each other:

* bfs_all_pairs       — breadth-first search from all sources at once over
                        the graph's neighbour table, five numpy operations
                        per level (distance only).
* laplacian_resistance — Moore-Penrose pseudoinverse of the graph Laplacian
                         via the rank-one shift inv(L + J/m), filled from
                         the same neighbour table (float).
* structured_metrics  — exploits that every bridge is a cut edge, so any
                        cross-pentagon metric is (metric to the local
                        attachment vertex) + bridge + (metric from the entry
                        vertex), composed along the chain with prefix sums.
                        Exact: distances are integers, resistances are
                        multiples of 1/5.

The pentagon constants relative to any anchor vertex are {0, 1, 2, 2, 1} for
distance and {0, 4/5, 6/5, 6/5, 4/5} for resistance (a unit-resistor 5-cycle
splits into l and 5-l series arms in parallel: l(5-l)/5).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .chain import ChainBlueprint, PentagonChainGraph, attachment_positions

__all__ = [
    "MetricKind",
    "MetricMatrix",
    "bfs_all_pairs",
    "laplacian_resistance",
    "structured_metrics",
    "DEFAULT_DENSE_CAP",
]

DEFAULT_DENSE_CAP = 5000  # vertices; dense O(V^2) storage and O(V^3) solve

# 5-cycle metric tables indexed by 0-based cycle positions.  Resistance is
# stored scaled by 5 so everything stays integer.
_CYCLE_GAP = np.minimum(
    np.abs(np.arange(5)[:, None] - np.arange(5)[None, :]),
    5 - np.abs(np.arange(5)[:, None] - np.arange(5)[None, :]),
)
PENTAGON_DISTANCE = _CYCLE_GAP.astype(np.int64)
PENTAGON_RESISTANCE_X5 = (_CYCLE_GAP * (5 - _CYCLE_GAP)).astype(np.int64)


class MetricKind(Enum):
    DISTANCE = "distance"
    RESISTANCE = "resistance"


@dataclass(frozen=True)
class MetricMatrix:
    """Symmetric all-pairs metric matrix over the chain's vertex ids.

    Exact matrices hold int64 numerators over the fixed denominator
    (1 for distance, 5 for resistance); float matrices hold float64 and
    denominator 0.
    """

    size: int
    kind: MetricKind
    data: np.ndarray
    denominator: int  # 0 marks float mode

    @property
    def is_exact(self) -> bool:
        return self.denominator > 0

    def entry(self, u: int, v: int) -> Fraction | float:
        if self.is_exact:
            return Fraction(int(self.data[u, v]), self.denominator)
        return float(self.data[u, v])

    def as_float(self) -> np.ndarray:
        if self.is_exact:
            return self.data.astype(np.float64) / self.denominator
        return self.data

    def total(self) -> Fraction | float:
        """Sum over unordered pairs."""
        s = self.data.sum()
        if self.is_exact:
            return Fraction(int(s), 2 * self.denominator)
        return float(s) / 2.0


def bfs_all_pairs(g: PentagonChainGraph) -> MetricMatrix:
    """Shortest-path distance matrix by breadth-first search from every source.

    All sources advance together: the frontier is the set of (source, vertex)
    cells of the flat distance matrix at the current level.  The cell table
    cells[s*V + u] = s*V + g.table[u] lists every cell's neighbour cells:
    V^2 * 3 intp entries on a chain, 24 MB at V = 1000.  Each level is five
    numpy operations: take the frontier's neighbour cells, take their
    distances, compare with 0, compress to the unvisited cells, put the
    level.  Reads only g.table, so it stays independent of the blueprint and
    the structured engine.

    Chain graphs are 5-cycles joined by cut edges, so every pair has one
    shortest path, no cell enters the frontier twice, and the work is
    O(V*E).  On a graph with several shortest paths the distances stay
    right, but a cell is repeated once per shortest path, and so is the work.
    Refuses graphs of more than DEFAULT_DENSE_CAP vertices with ValueError
    before the cell table is built.
    """
    table = g.table
    V, width = table.shape
    _check_dense_size(V)
    # a pad u in row u is a visited cell: u is on the frontier already
    cells = (np.arange(V, dtype=np.intp)[:, None, None] * V + table).reshape(V * V, width)
    dist = np.full(V * V, -1, dtype=np.int64)
    frontier = np.arange(V) * (V + 1)  # the diagonal cells (s, s)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        candidates = cells.take(frontier, axis=0).reshape(-1)
        frontier = candidates.compress(dist.take(candidates) < 0)
        dist.put(frontier, level)
    if (dist < 0).any():
        raise ValueError("graph is not connected")
    dist = dist.reshape(V, V)
    return MetricMatrix(size=V, kind=MetricKind.DISTANCE, data=dist, denominator=1)


def _check_dense_size(V: int) -> None:
    """Refuse, with ValueError, a graph too large for the dense engines."""
    if V > DEFAULT_DENSE_CAP:
        raise ValueError(
            f"the dense BFS and Laplacian engines are capped at "
            f"{DEFAULT_DENSE_CAP} vertices, got {V}"
        )


def laplacian_resistance(g: PentagonChainGraph) -> MetricMatrix:
    """Resistance matrix from the Laplacian pseudoinverse (float engine).

    Uses inv(L + J/m): the uniform rank-one shift makes L invertible, and the
    shift's contribution cancels in r(u,v) = M_uu + M_vv - 2 M_uv.  Refuses
    graphs of more than DEFAULT_DENSE_CAP vertices with ValueError.
    """
    table, V = g.table, g.vertex_count
    _check_dense_size(V)
    # L + J/V in place: 1/V everywhere, minus 1 on each edge, plus the degree
    # on the diagonal; the same floats as (diag(deg) - A) + 1/V.  The pad
    # mask subtracts 1 at each edge cell and 0 at a pad, on the diagonal.
    own = np.arange(V)[:, None]
    shifted = np.full((V, V), 1.0 / V)
    shifted[own, table] -= table != own
    shifted.reshape(-1)[:: V + 1] += g.degrees
    M = np.linalg.inv(shifted)
    res = np.add.outer(M.diagonal(), M.diagonal())
    M *= 2.0
    res -= M
    res += res.T  # numpy buffers the overlapping transpose
    res /= 2.0
    np.fill_diagonal(res, 0.0)
    return MetricMatrix(size=V, kind=MetricKind.RESISTANCE, data=res, denominator=0)


def _structured(out: np.ndarray, table: np.ndarray, bridge: int) -> np.ndarray:
    """Compose one pentagon metric table along the chain via prefix sums.

    For u in pentagon a and v in pentagon b with a < b (0-based):

        m(u, v) = T[pos_u, out_a] + bridge
                + sum_{t=a+1}^{b-1} (T[0, out_t] + bridge)
                + T[0, pos_v]

    where out_t is the attachment position of pentagon t.  The middle sum is
    pref[b] - pref[a+1] with pref the cumulative entry-to-entry cost.

    So m(u, v) = left[u] + right[v]: one outer sum, of which the block upper
    triangle (a < b) is kept.  The matrix is that strict upper triangle plus
    its transpose, with the n diagonal 5x5 blocks, the pentagon table itself,
    written through a (n, 5, n, 5) view: about five passes over V^2 entries.
    """
    n = out.size
    # pref[a]: cost from pentagon 0's entry vertex to pentagon a's (pref[n] unused)
    pref = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(table[0, out] + bridge, out=pref[1:])

    # left[5a + i]: cost from position i to pentagon a's attachment vertex,
    # minus pref[a+1]; right[5b + j]: pref[b] + bridge + entry cost
    left = (table[:, out] - pref[1:]).T.reshape(-1)
    right = np.add.outer(pref[:n] + bridge, table[0]).reshape(-1)
    M = np.triu(np.add.outer(left, right), 1)
    M += M.T
    diag = np.arange(n)
    M.reshape(n, 5, n, 5)[diag, :, diag] = table  # a view: writes land in M
    return M


def structured_metrics(blueprint: ChainBlueprint) -> tuple[MetricMatrix, MetricMatrix]:
    """Exact (distance, resistance) matrices from cut-edge additivity.

    Both distance and resistance are additive across a bridge, so the whole
    matrix follows from the pentagon tables and the chain's attachment
    positions.  Output is exact: int64 distances and int64 resistance
    numerators over denominator 5.
    """
    # out[t]: attachment position of pentagon t; the last one's pad is unused
    out = np.array(attachment_positions(blueprint) + [0], dtype=np.int64)
    dist = _structured(out, PENTAGON_DISTANCE, 1)
    res = _structured(out, PENTAGON_RESISTANCE_X5, 5)
    V = 5 * blueprint.n
    return (
        MetricMatrix(size=V, kind=MetricKind.DISTANCE, data=dist, denominator=1),
        MetricMatrix(size=V, kind=MetricKind.RESISTANCE, data=res, denominator=5),
    )
