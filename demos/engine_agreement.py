"""Race the three metric engines and the O(n) engine on random chains.

BFS and the cut-edge engine must agree bit for bit on distances, the
Laplacian pseudoinverse within float tolerance on resistances, and the O(n)
engine (base + slope * T2) must reproduce the matrix-based index values
exactly.
"""

import time
from fractions import Fraction

import numpy as np

from pentachain import (
    ProbabilityParams,
    bfs_all_pairs,
    build_graph,
    compute_indices,
    incremental_indices,
    laplacian_resistance,
    sample_blueprint,
    structured_metrics,
)

rng = np.random.Generator(np.random.PCG64(1))
p = ProbabilityParams(Fraction(1, 2))

worst_gap = 0.0
for trial in range(20):
    n = int(rng.integers(1, 13))
    blueprint = sample_blueprint(n, p, rng)
    graph = build_graph(blueprint)

    dist_struct, res_struct = structured_metrics(blueprint)
    assert np.array_equal(bfs_all_pairs(graph).data, dist_struct.data)

    gap = float(
        np.abs(laplacian_resistance(graph).as_float() - res_struct.as_float()).max()
    )
    worst_gap = max(worst_gap, gap)

    assert compute_indices(graph, dist_struct, res_struct) == incremental_indices(
        blueprint
    )

print("20 random chains, n up to 12: all engines agree")
print(f"worst Laplacian-vs-exact resistance gap: {worst_gap:.3e}")

# the O(n) engine is the only one that scales to very long chains
long_chain = sample_blueprint(10**5, p, rng)
t0 = time.perf_counter()
bundle = incremental_indices(long_chain)
print(f"n = 100000 in {time.perf_counter() - t0:.3f} s; "
      f"wiener has {len(str(bundle.wiener.numerator))} digits")
