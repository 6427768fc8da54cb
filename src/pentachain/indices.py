"""The six distance/resistance indices of a chain, by matrix and by recurrence.

Index definitions (sums over unordered vertex pairs):

    wiener     sum d(u,v)                  kirchhoff  sum r(u,v)
    gutman     sum deg(u)deg(v) d(u,v)     kf_star    sum deg(u)deg(v) r(u,v)
    schultz    sum (deg(u)+deg(v)) d(u,v)  kf_plus    sum (deg(u)+deg(v)) r(u,v)

compute_indices evaluates them from exact metric matrices.  incremental_indices
walks the chain pentagon by pentagon in O(n): appending pentagon k+1 across a
cut edge adds a fixed accumulation term plus a carry scalar that itself grows
by a mode-dependent linear step.  The carry seeds and steps below were derived
from the pentagon metric tables and cut-edge additivity, and are pinned to the
matrix engines by the exhaustive oracle tests; per the module contract the
oracle, not the constant table, is the arbiter.

Every index is affine in T2 = sum over mode-2 positions k of (n-k)(k-1), which
gives a closed-form fast path for very long chains and for mass sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
import json

import numpy as np

from .chain import AttachmentMode, ChainBlueprint, PentagonChainGraph
from .metrics import MetricKind, MetricMatrix

__all__ = [
    "IndexKind",
    "MOMENT_INDICES",
    "IndexBundle",
    "compute_indices",
    "incremental_indices",
    "affine_in_t2",
    "t2_weights",
    "t2_of_blueprint",
]


class IndexKind(Enum):
    WIENER = "wiener"
    GUTMAN = "gutman"
    SCHULTZ = "schultz"
    KIRCHHOFF = "kirchhoff"
    KF_STAR = "kf_star"
    KF_PLUS = "kf_plus"


# The four indices whose moments have closed forms.
MOMENT_INDICES = (
    IndexKind.GUTMAN,
    IndexKind.SCHULTZ,
    IndexKind.KF_STAR,
    IndexKind.KF_PLUS,
)


@dataclass(frozen=True)
class IndexBundle:
    """Exact values of all six indices for one realization."""

    n: int
    wiener: Fraction
    gutman: Fraction
    schultz: Fraction
    kirchhoff: Fraction
    kf_star: Fraction
    kf_plus: Fraction

    def get(self, kind: IndexKind) -> Fraction:
        return getattr(self, kind.value)

    def to_json(self) -> str:
        out = {"n": self.n}
        for kind in IndexKind:
            x = self.get(kind)
            out[kind.value] = f"{x.numerator}/{x.denominator}"
        return json.dumps(out)

    @classmethod
    def from_json(cls, text: str) -> "IndexBundle":
        data = json.loads(text)
        return cls(
            n=int(data["n"]),
            **{kind.value: Fraction(data[kind.value]) for kind in IndexKind},
        )


def compute_indices(
    g: PentagonChainGraph, dist: MetricMatrix, res: MetricMatrix
) -> IndexBundle:
    """Evaluate all six indices from exact metric matrices.

    Requires exact matrices (the float Laplacian engine is a cross-check at
    the matrix level, not an index source).  Full-matrix sums count each pair
    twice, hence the division by 2 * denominator.
    """
    V = g.vertex_count
    for m, kind in ((dist, MetricKind.DISTANCE), (res, MetricKind.RESISTANCE)):
        if m.size != V:
            raise ValueError(f"matrix size {m.size} does not match graph size {V}")
        if m.kind is not kind:
            raise ValueError(f"expected a {kind.value} matrix, got {m.kind.value}")
        if not m.is_exact:
            raise ValueError("compute_indices needs exact matrices")

    deg = np.array(g.degrees, dtype=np.int64)
    prod = deg[:, None] * deg[None, :]
    sums = deg[:, None] + deg[None, :]

    def pair_sum(weights: np.ndarray | None, m: MetricMatrix) -> Fraction:
        total = int((m.data if weights is None else weights * m.data).sum())
        return Fraction(total, 2 * m.denominator)

    return IndexBundle(
        n=g.n,
        wiener=pair_sum(None, dist),
        gutman=pair_sum(prod, dist),
        schultz=pair_sum(sums, dist),
        kirchhoff=pair_sum(None, res),
        kf_star=pair_sum(prod, res),
        kf_plus=pair_sum(sums, res),
    )


# Recurrence table, one row per index, resistance rows scaled by 5 so all
# arithmetic is integer:
#   (x1, carry1, slope1, icept1, slope2, icept2, acc_slope, acc_icept, scale)
# Step k (building PG_{k+1} from PG_k): for k >= 2 the carry first grows by
# slope_m * k - icept_m with m the mode of choices[k-2]; then the index grows
# by carry + acc_slope * k + acc_icept.
_REC: dict[IndexKind, tuple[int, int, int, int, int, int, int, int, int]] = {
    IndexKind.GUTMAN: (60, 144, 288, 156, 432, 300, 276, 49, 1),
    IndexKind.SCHULTZ: (60, 132, 240, 113, 360, 233, 247, 55, 1),
    IndexKind.KF_STAR: (200, 480, 1296, 876, 1584, 1164, 1140, 145, 5),
    IndexKind.KF_PLUS: (40, 88, 216, 133, 264, 181, 203, 35, 1),
    IndexKind.WIENER: (15, 30, 50, 20, 75, 45, 55, 15, 1),
    IndexKind.KIRCHHOFF: (10, 20, 45, 25, 55, 35, 45, 10, 1),
}

# Above this length the affine-in-T2 fast path takes over; both paths are
# exact and the tests pin them to each other across the boundary.
_SCALAR_LIMIT = 4096


def _scalar_totals(blueprint: ChainBlueprint) -> dict[IndexKind, Fraction]:
    n = blueprint.n
    choices = blueprint.choices
    out = {}
    for kind, (x1, c1, a1, b1, a2, b2, acc_a, acc_b, scale) in _REC.items():
        x, carry = x1, c1
        for k in range(1, n):
            if k >= 2:
                if choices[k - 2] is AttachmentMode.MODE1:
                    carry += a1 * k - b1
                else:
                    carry += a2 * k - b2
            x += carry + acc_a * k + acc_b
        out[kind] = Fraction(x, scale)
    return out


def _mode1_total(kind: IndexKind, n: int) -> int:
    """Scaled index value of the all-mode-1 chain, by summing the recurrence.

    carry_k = carry1 + slope1*(k(k+1)/2 - 1) - icept1*(k-1), and the total is
    x1 + sum_{k=1}^{n-1} (carry_k + acc_slope*k + acc_icept); plain integer
    algebra on the table above, no closed-form moment input.
    """
    x1, c1, a1, b1, _, _, acc_a, acc_b, _ = _REC[kind]
    m = n - 1
    sum_k = m * (m + 1) // 2
    sum_k2 = m * (m + 1) * (2 * m + 1) // 6
    sum_carry = m * c1 + a1 * ((sum_k2 + sum_k) // 2 - m) - b1 * (m * (m - 1) // 2)
    return x1 + sum_carry + acc_a * sum_k + acc_b * m


def mode_step_constants(kind: IndexKind) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Per-step carry growth constants (slope1, icept1, slope2, icept2).

    The carry grows by slope_m * k - icept_m when pentagon k+1 attaches in
    mode m; these four numbers also drive the closed-form moment blocks.
    """
    _, _, a1, b1, a2, b2, _, _, scale = _REC[kind]
    return (
        Fraction(a1, scale),
        Fraction(b1, scale),
        Fraction(a2, scale),
        Fraction(b2, scale),
    )


def t2_weights(n: int) -> np.ndarray:
    """Weights (n-k)(k-1) for k = 2..n-1: one per stochastic choice."""
    k = np.arange(2, n, dtype=np.int64)
    return (n - k) * (k - 1)


def t2_of_blueprint(blueprint: ChainBlueprint) -> int:
    """T2 = sum of (n-k)(k-1) over the blueprint's mode-2 positions.

    Summed in Python integers as (n+1)*sum(k) - sum(k^2) - n*count, so T2
    stays exact past the int64 range (C(n,3) >= 2^63 from n ~ 3.8e6).
    """
    n = blueprint.n
    ks = [k for k, c in enumerate(blueprint.choices, start=2) if c is AttachmentMode.MODE2]
    return (n + 1) * sum(ks) - sum(k * k for k in ks) - n * len(ks)


def affine_in_t2(kind: IndexKind, n: int) -> tuple[Fraction, Fraction]:
    """(base, slope) with index value = base + slope * T2.

    base is the all-mode-1 value; flipping position k to mode 2 shifts the
    final value by (slope2 - slope1) * k - (icept2 - icept1), felt on each of
    the remaining n - k steps, i.e. by slope * (n-k)(k-1) since the slope and
    intercept gaps coincide for every index.
    """
    x1, _, a1, b1, a2, b2, _, _, scale = _REC[kind]
    if a2 - a1 != b2 - b1:  # the shared gap makes the shift (n-k)(k-1)-shaped
        raise ArithmeticError(f"{kind.value}: mode slope and intercept gaps differ")
    return Fraction(_mode1_total(kind, n), scale), Fraction(a2 - a1, scale)


def incremental_indices(blueprint: ChainBlueprint) -> IndexBundle:
    """All six indices in O(n) without building the graph.

    Exactly equals compute_indices on the structured matrices; the exhaustive
    and randomized oracle tests enforce this.  Long chains use the affine
    fast path, short ones the direct carry recurrence.
    """
    n = blueprint.n
    if n <= _SCALAR_LIMIT:
        values = _scalar_totals(blueprint)
    else:
        t2 = t2_of_blueprint(blueprint)
        values = {}
        for kind in IndexKind:
            base, slope = affine_in_t2(kind, n)
            values[kind] = base + slope * t2
    return IndexBundle(n=n, **{k.value: v for k, v in values.items()})
