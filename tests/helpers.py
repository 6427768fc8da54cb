"""Shared exact oracles for the test suite."""

from collections import deque
from fractions import Fraction

import numpy as np

from pentachain import AttachmentMode, IndexBundle, IndexKind, enumerate_blueprints
from pentachain.indices import _REC


def carry_indices(blueprint) -> IndexBundle:
    """All six indices by walking the chain recurrence pentagon by pentagon.

    Step k (building PG_{k+1} from PG_k): for k >= 2 the carry first grows by
    slope_m * k - icept_m with m the mode of choices[k-2]; then the index
    grows by carry + acc_slope * k + acc_icept.  Reads the same constant
    table as the production engine but never forms T2, so it checks the
    affine-in-T2 form that incremental_indices and the closed forms rest on.
    """
    n = blueprint.n
    values = {}
    for kind, (x1, c1, a1, b1, a2, b2, acc_a, acc_b, scale) in _REC.items():
        x, carry = x1, c1
        for k in range(1, n):
            if k >= 2:
                if blueprint.choices[k - 2] is AttachmentMode.MODE1:
                    carry += a1 * k - b1
                else:
                    carry += a2 * k - b2
            x += carry + acc_a * k + acc_b
        values[kind.value] = Fraction(x, scale)
    return IndexBundle(n=n, **values)


def enumeration_laws(n: int, p) -> dict[IndexKind, tuple]:
    """Exact law of every index by sending each blueprint through the carry
    oracle: index -> (sorted support, mean, variance), independent of the
    T2-law dynamic program in pentachain.distribution."""
    acc: dict[IndexKind, dict[Fraction, Fraction]] = {kind: {} for kind in IndexKind}
    for blueprint, prob in enumerate_blueprints(n, p):
        bundle = carry_indices(blueprint)
        for kind in IndexKind:
            value = bundle.get(kind)
            acc[kind][value] = acc[kind].get(value, Fraction(0)) + prob
    laws = {}
    for kind, masses in acc.items():
        support = tuple(sorted(masses.items()))
        mean = sum(prob * value for value, prob in support)
        second = sum(prob * value * value for value, prob in support)
        laws[kind] = (support, mean, second - mean * mean)
    return laws


def enumeration_moments(index: IndexKind, n: int, p) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of one index by weighted exhaustive sweep."""
    _, mean, variance = enumeration_laws(n, p)[index]
    return mean, variance


def bfs_distances(graph) -> np.ndarray:
    """All-pairs hop distances by a textbook queue BFS from each source.

    Reads only graph.adjacency and walks one source at a time, so it shares
    nothing with the level-synchronous numpy search in bfs_all_pairs.
    Unreachable pairs stay -1.
    """
    adjacency = graph.adjacency
    rows = []
    for source in range(len(adjacency)):
        row = [-1] * len(adjacency)
        row[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(adjacency), len(adjacency))
