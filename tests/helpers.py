"""Shared exact oracles for the test suite."""

from collections import deque
from fractions import Fraction

import numpy as np

from pentachain import (
    MOMENT_INDICES,
    AttachmentMode,
    IndexBundle,
    IndexKind,
    Source,
    affine_in_t2,
    enumerate_blueprints,
    exact_distribution,
    expected_index,
    t2_weights,
    variance_index,
)
from pentachain.indices import _REC
from pentachain.report import _ORACLE_NMAX, MomentReport, MomentRow


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


def chain_edges(blueprint) -> str:
    """The chain's edge list as text, one 'u v' line per edge with u < v,
    sorted by (u, v), straight from the definition: five cycle edges per
    pentagon, then the bridge from x_{1,1} and from x_{k,2} (mode 1) or
    x_{k,3} (mode 2) of pentagon k to x_{k+1,1}.  Shares nothing with
    build_graph or its neighbour table."""
    n = blueprint.n
    edges = []
    for k in range(n):
        edges += [(5 * k + j, 5 * k + (j + 1) % 5) for j in range(5)]
    positions = [0] + [1 if c is AttachmentMode.MODE1 else 2 for c in blueprint.choices]
    edges += [(5 * k + positions[k], 5 * k + 5) for k in range(n - 1)]
    return "".join(f"{u} {v}\n" for u, v in sorted(tuple(sorted(e)) for e in edges))


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


def pair_loop_indices(graph, dist, res) -> IndexBundle:
    """All six indices by a plain Python loop over unordered pairs u < v.

    Sums integer numerators weighted by deg(u)deg(v) and deg(u) + deg(v),
    one Fraction per index at the end, so it shares none of the matrix
    algebra in compute_indices.
    """
    deg = graph.degrees
    V = len(deg)
    values = {}
    for m, names in (
        (dist, ("wiener", "gutman", "schultz")),
        (res, ("kirchhoff", "kf_star", "kf_plus")),
    ):
        rows = m.data.tolist()
        plain = product = total = 0
        for u in range(V):
            for v in range(u + 1, V):
                x = rows[u][v]
                plain += x
                product += deg[u] * deg[v] * x
                total += (deg[u] + deg[v]) * x
        for name, value in zip(names, (plain, product, total)):
            values[name] = Fraction(value, m.denominator)
    return IndexBundle(n=graph.n, **values)


def _laplacian_times(adjacency, X: np.ndarray) -> np.ndarray:
    """L @ X in int64, row by row from the adjacency: deg(u) X[u] minus the
    neighbours' rows."""
    return np.array(
        [len(nbrs) * X[u] - X[list(nbrs)].sum(axis=0) for u, nbrs in enumerate(adjacency)],
        dtype=np.int64,
    ).reshape(X.shape)


def resistance_certificate(graph, res) -> bool:
    """True exactly when res is the effective-resistance matrix of graph.

    res holds numerators over 5 (X = 5R).  For a connected graph, R is the
    resistance-distance matrix (Klein and Randic) if and only if it is
    symmetric with a zero diagonal and L R L = -2L, where L is the graph
    Laplacian: R = diag(L+) 1^T + 1 diag(L+)^T - 2L+ gives L R L = -2 L L+ L
    = -2L, and the conditions leave no other solution.  Checked in int64 as
    L X L = -10 L, with no float solve.
    """
    X = np.asarray(res.data, dtype=np.int64)
    if res.denominator != 5 or not np.array_equal(X, X.T) or X.diagonal().any():
        return False
    adjacency = graph.adjacency
    lap = _laplacian_times(adjacency, np.eye(len(adjacency), dtype=np.int64))
    # L X L = L (L X)^T, since X and L are symmetric
    lxl = _laplacian_times(adjacency, _laplacian_times(adjacency, X).T)
    return np.array_equal(lxl, -10 * lap)


def python_t2_law(n: int, p1) -> tuple[tuple[int, int], ...]:
    """The law of T2 as (value, numerator over b^(n-2)) pairs, zero masses
    dropped, in plain Python integers: no numpy array, no dtype to overflow.

    The numerators are the coefficients of the product of a + c*x^w over the
    weights, for p1 = a/b and c = b - a.  The product is taken at x = 2^B as
    one big integer (Kronecker substitution): every coefficient is at most
    b^(n-2) < 2^B, so no coefficient carries into the next, and the B-bit
    digits of the product are the numerators.  A different algorithm from the
    rounds of the dynamic program it checks.
    """
    p = Fraction(p1)
    a, b = p.numerator, p.denominator
    digit = ((b ** max(0, n - 2)).bit_length() + 8) // 8  # bytes per coefficient, B = 8 * digit
    weights = t2_weights(n).tolist()
    product = 1
    for w in weights:
        product = a * product + ((b - a) * product << (8 * digit * w))
    raw = product.to_bytes(digit * (sum(weights) + 1), "little")
    coefficients = (int.from_bytes(raw[i : i + digit], "little") for i in range(0, len(raw), digit))
    return tuple((t, c) for t, c in enumerate(coefficients) if c)


_REL_TOL = Fraction(1, 10**9)


def _fraction_matches(value, oracle) -> bool:
    return value == oracle or abs(value - oracle) <= _REL_TOL * max(1, abs(oracle))


def fraction_moment_report(n, p1, indices=MOMENT_INDICES) -> MomentReport:
    """moment_report computed the earlier way, with Fraction arithmetic
    throughout: every closed form takes p1 as given, each index maps the T2
    moments through base + slope * T2 in Fractions, and the gaps and match
    flags are Fraction and float operations.  The integer report must give
    the same fields, of the same types."""
    run_oracle = n <= _ORACLE_NMAX
    law = None
    rows = []
    for kind in indices:
        reference = expected_index(kind, n, p1, source=Source.REFERENCE)
        verified = expected_index(kind, n, p1, source=Source.VERIFIED)
        variance = variance_index(kind, n, p1)
        if not run_oracle:
            rows.append(
                MomentRow(
                    index=kind,
                    n=n,
                    p1=p1,
                    expected_reference=reference,
                    expected_verified=verified,
                    variance=variance,
                )
            )
            continue
        # one T2-law dynamic program per (n, p1); the other indices map it
        if law is None:
            law = exact_distribution(kind, n, p1)
        base, slope = affine_in_t2(kind, n)
        mean = base + slope * law.t2_mean
        var = slope * slope * law.t2_variance
        e_gap = abs(reference - mean)
        v_gap = abs(variance - var)
        rows.append(
            MomentRow(
                index=kind,
                n=n,
                p1=p1,
                expected_reference=reference,
                expected_verified=verified,
                variance=variance,
                expected_oracle=mean,
                variance_oracle=var,
                expected_reference_match=_fraction_matches(reference, mean),
                expected_verified_match=_fraction_matches(verified, mean),
                variance_match=_fraction_matches(variance, var),
                expected_gap_abs=e_gap,
                expected_gap_rel=e_gap / max(1, abs(mean)),
                variance_gap_abs=v_gap,
                variance_gap_rel=v_gap / max(1, abs(var)),
            )
        )
    return MomentReport(n=n, p1=p1, rows=tuple(rows))


def count_calls(monkeypatch, module, names) -> dict[str, int]:
    """Route each of names on module through a counter; return the counts.

    The benchmark's traced pass wraps the same module attributes, so a call
    that stops going through one of them shows here as a wrong count.
    """
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls
