"""The six distance/resistance indices of a chain, by matrix and by T2.

Index definitions (sums over unordered vertex pairs):

    wiener     sum d(u,v)                  kirchhoff  sum r(u,v)
    gutman     sum deg(u)deg(v) d(u,v)     kf_star    sum deg(u)deg(v) r(u,v)
    schultz    sum (deg(u)+deg(v)) d(u,v)  kf_plus    sum (deg(u)+deg(v)) r(u,v)

compute_indices evaluates them from exact metric matrices.  incremental_indices
evaluates them in O(n) without the graph: every index equals
base(n) + slope * T2, with T2 = sum over mode-2 positions k of (n-k)(k-1).
base and slope come from the chain recurrence below: appending pentagon k+1
across a cut edge adds a fixed accumulation term plus a carry scalar that
itself grows by a mode-dependent linear step.  The carry seeds and steps were
derived from the pentagon metric tables and cut-edge additivity; the matrix
engines and a step-by-step walk of the recurrence in the test suite are the
oracles that pin them.
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
    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality; Enum's own hashes the name in Python, a cost that
    # every table and cache keyed by an index pays.
    __hash__ = object.__hash__

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
    twice, hence the division by 2 * denominator.  The degree weights enter
    through one product with the degree vector per matrix, never as V x V
    weight matrices.
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
    values = []
    for m in (dist, res):
        # over ordered pairs of a symmetric m: sum deg_u deg_v m_uv is
        # deg.m.deg, and sum (deg_u + deg_v) m_uv is 2 * 1.m.deg
        m_deg = m.data @ deg
        for total in (m.data.sum(), deg @ m_deg, 2 * m_deg.sum()):
            values.append(Fraction(int(total), 2 * m.denominator))
    return IndexBundle(g.n, *values)  # wiener, gutman, schultz, kirchhoff, kf_star, kf_plus


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


def _scaled_affine(kind: IndexKind, n: int) -> tuple[int, int, int]:
    """(base, slope, scale) in integers: index value = (base + slope*T2) / scale.

    base is the all-mode-1 value, from summing the recurrence in closed form:
    carry_k = carry1 + slope1*(k(k+1)/2 - 1) - icept1*(k-1), and the total is
    x1 + sum_{k=1}^{n-1} (carry_k + acc_slope*k + acc_icept).  Flipping
    position k to mode 2 shifts the final value by
    (slope2 - slope1) * k - (icept2 - icept1), felt on each of the remaining
    n - k steps, i.e. by slope * (n-k)(k-1) since the slope and intercept gaps
    coincide for every index.  Plain integer algebra on the table above, no
    closed-form moment input.
    """
    x1, c1, a1, b1, a2, b2, acc_a, acc_b, scale = _REC[kind]
    if a2 - a1 != b2 - b1:  # the shared gap makes the shift (n-k)(k-1)-shaped
        raise ArithmeticError(f"{kind.value}: mode slope and intercept gaps differ")
    m = n - 1
    sum_k = m * (m + 1) // 2
    sum_k2 = m * (m + 1) * (2 * m + 1) // 6
    sum_carry = m * c1 + a1 * ((sum_k2 + sum_k) // 2 - m) - b1 * (m * (m - 1) // 2)
    return x1 + sum_carry + acc_a * sum_k + acc_b * m, a2 - a1, scale


def index_moments(kind, n, t2_mean, t2_variance) -> tuple[int, int, int, int]:
    """(mean numerator, mean denominator, variance numerator, variance
    denominator) of one index, in integers, from the moments of T2.

    The index is (base + slope * T2) / scale, so its mean is
    (base * d + slope * m) / (scale * d) for t2_mean = m/d, and its variance
    slope^2 * t2_variance / scale^2.  The fractions are not reduced.
    """
    base, slope, scale = _scaled_affine(kind, n)
    m, d = t2_mean.numerator, t2_mean.denominator
    return (
        base * d + slope * m,
        scale * d,
        slope * slope * t2_variance.numerator,
        scale * scale * t2_variance.denominator,
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

    base is the all-mode-1 value and slope the per-step gap between the two
    attachment modes.
    """
    base, slope, scale = _scaled_affine(kind, n)
    return Fraction(base, scale), Fraction(slope, scale)


def incremental_indices(blueprint: ChainBlueprint) -> IndexBundle:
    """All six indices in O(n) without building the graph: base + slope * T2.

    Exactly equals compute_indices on the structured matrices; the exhaustive
    and randomized oracle tests enforce this.
    """
    n = blueprint.n
    t2 = t2_of_blueprint(blueprint)
    values = {}
    for kind in IndexKind:
        base, slope, scale = _scaled_affine(kind, n)
        values[kind.value] = Fraction(base + slope * t2, scale)
    return IndexBundle(n=n, **values)
