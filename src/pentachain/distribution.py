"""Exact index distributions, Monte Carlo sampling and normality checks.

The exact side gives the full law of an index over all 2^(n-2) chains of a
given length with rational probabilities, the oracle moments for the closed
forms.  Every index is base + slope * T2, so one dynamic program over the
exact law of T2 replaces a sweep over the chains themselves, and one run of
it serves every index at a given (n, p1).  A run keeps the law as the
program's arrays and takes the moments of T2 from them at once; the law as
Python pairs, the index moments and the rational support are built only when
they are first read.  The sampling
side draws chains with a splittable counter-based RNG laid out as 64 fixed
logical streams: stream s is seeded with
SeedSequence(masterSeed, spawn_key=(s,)) and owns the sample indices
congruent to s mod 64, in fixed chunks, so the result of a run depends only
on (masterSeed, sampleCount) and never on the number of worker processes.
Each stream reduces its draws to the exact integer statistics of T2 (count,
sum, sum of squares, min, max); the streams' totals are added exactly and
mapped to each index once, so no float merge order enters the result.

The normality check standardizes samples by the verified closed-form moments
(or by sample moments on request) and measures the two-sided Kolmogorov
sup-distance to the standard normal.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .chain import ProbabilityParams
from .closedform import expected_index, variance_index
from .indices import IndexKind, affine_in_t2, index_moments, t2_weights

_STREAMS = 64
_CHUNK = 4096
# At most this many uniforms per draw: long chains are drawn fewer rows at a
# time, from the same stream in the same order, so the values do not change.
_DRAW_UNIFORMS = 2**22

# Asymptotic two-sided Kolmogorov critical constants c(alpha); the test
# threshold is c(alpha) / sqrt(sampleCount).
_KS_CRITICAL = {0.01: 1.628, 0.05: 1.358}


class _T2Law:
    """The law of T2 at one (n, p1) as the dynamic program leaves it: the
    reachable T2 values, ascending, and their integer numerators, one array
    each.  Every index's ExactDistribution at that (n, p1) holds the same
    one, so the pairs tuple is built once, on its first read."""

    def __init__(self, values: np.ndarray, counts: np.ndarray):
        self.values, self.counts = values, counts

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        # a list first: tuple() of an iterator grows its result by realloc, and
        # CPython then parks each discarded short law in its tuple free lists
        # (up to 2000 per length below 20) until a full garbage collection
        return tuple(list(zip(self.values.tolist(), self.counts.tolist())))


@dataclass(frozen=True)
class ExactDistribution:
    """Full law of one index over all chains of n pentagons, exact.

    t2_mean and t2_variance, the moments of T2, are computed with the law;
    everything else is built on first read and then kept.  law is the law of
    T2 that every index shares at one (n, p1): pairs (T2 value, integer
    numerator over b^(n-2) for p1 = a/b), ascending in T2 and without zero
    masses, as Python integers.  mean and variance are the index moments
    base + slope * t2_mean and slope^2 * t2_variance.  support, the
    (value, probability) Fraction pairs, is built from law.  for_index maps
    the same law to another index without rerunning the dynamic program;
    the two share the T2 arrays and the law tuple, whichever builds it.
    Equality compares index, n, p1 and the T2 moments, which fix the rest.
    """

    index: IndexKind
    n: int
    p1: Fraction
    t2_mean: Fraction
    t2_variance: Fraction
    _t2: _T2Law = field(repr=False, compare=False)

    @property
    def law(self) -> tuple[tuple[int, int], ...]:
        return self._t2.pairs

    @cached_property
    def mean(self) -> Fraction:
        num, den, _, _ = index_moments(self.index, self.n, self.t2_mean, self.t2_variance)
        return Fraction(num, den)

    @cached_property
    def variance(self) -> Fraction:
        _, _, num, den = index_moments(self.index, self.n, self.t2_mean, self.t2_variance)
        return Fraction(num, den)

    @cached_property
    def support(self) -> tuple[tuple[Fraction, Fraction], ...]:
        base, slope = affine_in_t2(self.index, self.n)
        # values over the common denominator; every slope is positive, so they ascend
        scale = base.denominator * slope.denominator
        v0, dv = base.numerator * slope.denominator, slope.numerator * base.denominator
        denom = self.p1.denominator ** max(0, self.n - 2)
        return tuple([(Fraction(v0 + dv * t, scale), Fraction(c, denom)) for t, c in self.law])

    def for_index(self, index: IndexKind) -> "ExactDistribution":
        """The law of another index at the same (n, p1), from the same T2 law."""
        return ExactDistribution(index, self.n, self.p1, self.t2_mean, self.t2_variance, self._t2)


def exact_distribution(index: IndexKind, n: int, p1) -> ExactDistribution:
    """Exact distribution of one index over all 2^(n-2) chains of length n.

    The index is base + slope * T2.  With p1 = a/b and c = b - a, the law of
    T2 has integer numerators over b^(n-2): each choice k multiplies the
    generating function by a + c * z^(w_k).  The weights are symmetric,
    w_k = w_(n+1-k), and two choices share a weight only when they are such a
    pair, so the dynamic program makes one round per distinct weight: a pair
    round num <- a^2*num + 2ac*shift(num, w) + c^2*shift(num, 2w), and one
    single round num <- a*num + c*shift(num, w) for the middle weight when
    n - 2 is odd.  Multiplications by 1 are skipped.  The call itself only
    runs the pass, checks that the law sums to 1 and takes the moments of T2
    from integer sums over its arrays; the law tuple, the index moments and
    the support are built from those arrays and moments on first read.  That
    law is the same for every index: call for_index on the result for the
    other indices at this (n, p1) rather than running the pass again.  p1 is
    read by ProbabilityParams.coerce and then used exactly: a float, or a
    decimal text like "0.3", is converted through Fraction(float), so
    probabilities always sum to exactly 1.

    Every partial numerator is at most b^(n-2), so the pass runs on int64
    when b^(n-2) < 2^63 (p1 = 1/2 up to n = 64, p1 = 1/3 up to n = 41) and
    on Python integers otherwise; the law is Python integers either way.
    The sums sum c, sum t*c and sum t^2*c run on the int64 arrays while
    b^(n-2) * C(n,3)^2 < 2^63 (p1 = 1/5 and 4/5 up to n = 20, p1 = 1/2 up to
    n = 38), and Python-integer sums beyond.  There is no length limit: the
    pass makes ceil((n-2)/2) rounds over at most C(n,3) + 1 entries.  On a
    2-CPU x86-64 host with Python 3.11 and numpy 2.4 (timeit, best of 7)
    that is about 0.08 ms at n = 16 and 0.15 ms at n = 22 for p1 = 1/3;
    1.2 ms at n = 40, 8 ms at n = 64 and 49 ms at n = 70 for p1 = 1/2
    (Python integers from n = 65); and 0.7 s at n = 70 for p1 = 0.3
    (denominator 2^54).  The host's speed drifts by up to 2x between spells.
    Raises ValueError for n < 1 or a p1 that ProbabilityParams.coerce
    refuses.
    """
    value = ProbabilityParams.coerce(p1)[0]
    exact = value if type(value) is Fraction else Fraction(value)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, b = exact.numerator, exact.denominator
    c = b - a
    denom = b ** max(0, n - 2)
    weights = t2_weights(n).tolist()
    top = sum(weights)  # the largest T2
    num = np.zeros(top + 1, dtype=np.int64 if denom < 2**63 else object)
    num[0] = 1
    hi = 0
    # rounds grouped by weight value, not by position: a law that lost a
    # choice still runs, and fails the total check below
    for w, times in Counter(weights).items():
        filled = num[: hi + 1]
        if times == 2:  # times (a + c*z^w)^2
            near = filled * (2 * a * c)
            far = filled * (c * c) if c != 1 else filled.copy()
            if a != 1:
                filled *= a * a
            num[w : hi + w + 1] += near
            num[2 * w : hi + 2 * w + 1] += far
        else:  # times a + c*z^w
            moved = filled * c if c != 1 else filled.copy()
            if a != 1:
                filled *= a
            num[w : hi + w + 1] += moved
        hi += times * w
    support = np.flatnonzero(num)
    counts = num[support]
    # s1 = sum t*c and s2 = sum t*(t*c), on int64 while no term or sum can
    # pass 2^63, on Python integers beyond
    if denom * top * top < 2**63:
        t_counts = support * counts
        total, s1, s2 = int(counts.sum()), int(t_counts.sum()), int(t_counts @ support)
    else:
        values, count_list = support.tolist(), counts.tolist()
        t_counts = list(map(operator.mul, values, count_list))
        total, s1 = sum(count_list), sum(t_counts)
        s2 = sum(map(operator.mul, values, t_counts))
    if total != denom:
        raise ArithmeticError(f"T2 law at n={n}, p1={p1} does not sum to 1")
    t2_mean = Fraction(s1, denom)
    t2_variance = Fraction(s2 * denom - s1 * s1, denom * denom)
    return ExactDistribution(index, n, exact, t2_mean, t2_variance, _T2Law(support, counts))


@dataclass(frozen=True)
class SampleStats:
    """Summary of Monte Carlo draws of one index: m2 is the sum of squared
    deviations from the mean."""

    index: IndexKind
    count: int
    mean: float
    m2: float
    min: float
    max: float
    seed: int

    @property
    def variance(self) -> float:
        """Sample variance (ddof 1); zero for fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)


def _check_sampling(n: int, p1, sample_count: int) -> float:
    """Validate sampling arguments and return p1 as a float.

    Sampling sums T2 in int64, so lengths where C(n,3) would overflow are
    refused.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    p1f = float(ProbabilityParams.coerce(p1)[0])
    if math.comb(n, 3) >= 2**63:
        raise ValueError(f"n={n} is too long to sample: T2 up to C(n,3) overflows int64")
    return p1f


def _stream_sample_count(sample_count: int, stream: int) -> int:
    if stream >= sample_count:
        return 0
    return (sample_count - stream + _STREAMS - 1) // _STREAMS


def _stream_rng(master_seed: int, stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(seq))


def _t2_chunks(master_seed: int, stream: int, sample_count: int, n: int, p1f: float):
    """T2 of one logical stream's draws, in draw order: one array per chunk
    of at most _CHUNK chains and _DRAW_UNIFORMS uniforms (one chain at least)."""
    steps = max(0, n - 2)
    weights = t2_weights(n)
    rng = _stream_rng(master_seed, stream)
    count = _stream_sample_count(sample_count, stream)
    rows = min(_CHUNK, max(1, _DRAW_UNIFORMS // steps)) if steps else _CHUNK
    for start in range(0, count, rows):
        length = min(rows, count - start)
        if steps:
            yield (rng.random((length, steps)) >= p1f) @ weights
        else:
            yield np.zeros(length, dtype=np.int64)


def _stream_stats(args):
    """(count, sum T2, sum T2^2, min T2, max T2) of one logical stream, exact.

    Each chunk sums on int64 while _CHUNK * C(n,3)^2 < 2^63, and on Python
    integers beyond; the running totals are Python integers.
    """
    master_seed, stream, sample_count, n, p1f = args
    top = math.comb(n, 3)  # T2 lies in [0, C(n,3)]
    dtype = np.int64 if _CHUNK * top * top < 2**63 else object
    count = s1 = s2 = hi = 0
    lo = top
    for t2 in _t2_chunks(master_seed, stream, sample_count, n, p1f):
        t = t2.astype(dtype, copy=False)
        count += t.size
        s1 += int(t.sum())
        s2 += int(t @ t)
        lo, hi = min(lo, int(t.min())), max(hi, int(t.max()))
    return count, s1, s2, lo, hi


def monte_carlo(
    indices,
    n: int,
    p1,
    sample_count: int,
    master_seed: int,
    workers: int = 1,
) -> dict[IndexKind, SampleStats]:
    """Sample random chains and summarize the given indices.

    One chain draw feeds every requested index.  Every stream returns the
    integer statistics of its T2 draws; their sums are exact, and each index
    maps them once through its base + slope * T2, one exact rational per
    field rounded once to a float.  Deterministic in (master_seed,
    sample_count) alone: logical streams own fixed sample slots, so any
    worker count gives bit-identical results.
    """
    kinds = (indices,) if isinstance(indices, IndexKind) else tuple(indices)
    if not kinds:
        raise ValueError("need at least one index")
    p1f = _check_sampling(n, p1, sample_count)
    tasks = [(master_seed, s, sample_count, n, p1f) for s in range(min(_STREAMS, sample_count))]
    # a fork pool starts all its processes at the first submit, and a process
    # past one per task would only idle
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported here: the process pool pulls in multiprocessing, about 2 MB
        # of resident memory that single-worker runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_stream_stats, tasks))
    else:
        results = [_stream_stats(task) for task in tasks]
    counts, s1s, s2s, los, his = zip(*results)
    count, s1, s2, lo, hi = sum(counts), sum(s1s), sum(s2s), min(los), max(his)
    t2_mean = Fraction(s1, count)
    t2_m2 = Fraction(s2 * count - s1 * s1, count)
    stats = {}
    for kind in kinds:
        base, slope = affine_in_t2(kind, n)
        stats[kind] = SampleStats(
            kind,
            count,
            mean=float(base + slope * t2_mean),
            m2=float(slope * slope * t2_m2),
            min=float(base + slope * lo),
            max=float(base + slope * hi),
            seed=master_seed,
        )
    return stats


def sample_values(
    index: IndexKind, n: int, p1, sample_count: int, master_seed: int
) -> np.ndarray:
    """The exact value sequence monte_carlo aggregates, in draw order."""
    p1f = _check_sampling(n, p1, sample_count)
    base, slope = affine_in_t2(index, n)
    base_f, slope_f = float(base), float(slope)
    out = np.empty(sample_count, dtype=np.float64)
    for stream in range(min(_STREAMS, sample_count)):
        chunks = _t2_chunks(master_seed, stream, sample_count, n, p1f)
        out[stream::_STREAMS] = np.concatenate([base_f + slope_f * t2 for t2 in chunks])
    return out


class Standardization(Enum):
    """How normality_test centers and scales the samples."""

    CLOSED_FORM = "closed-form"
    SAMPLE = "sample"


@dataclass(frozen=True)
class NormalityResult:
    """Kolmogorov sup-distance of a standardized index sample to Phi."""

    index: IndexKind
    n: int
    p1: float
    sample_count: int
    ks_statistic: float
    standardization: Standardization
    seed: int

    def threshold(self, alpha: float = 0.01) -> float:
        """Asymptotic two-sided critical value c(alpha) / sqrt(m)."""
        try:
            c = _KS_CRITICAL[alpha]
        except KeyError:
            known = sorted(_KS_CRITICAL)
            raise ValueError(f"alpha must be one of {known}, got {alpha}") from None
        return c / math.sqrt(self.sample_count)

    def passes(self, alpha: float = 0.01) -> bool:
        return self.ks_statistic < self.threshold(alpha)

    def to_json(self) -> str:
        return json.dumps(
            {
                "index": self.index.value,
                "n": self.n,
                "p1": self.p1,
                "sample_count": self.sample_count,
                "ks_statistic": self.ks_statistic,
                "standardization": self.standardization.value,
                "seed": self.seed,
                "thresholds": {
                    str(alpha): self.threshold(alpha) for alpha in sorted(_KS_CRITICAL)
                },
            }
        )


_erfc = np.frompyfunc(math.erfc, 1, 1)


def ks_statistic(standardized) -> float:
    """Two-sided discrete sup distance between a sample CDF and Phi."""
    z = np.sort(np.asarray(standardized, dtype=np.float64))
    m = z.size
    cdf = 0.5 * _erfc(-z / math.sqrt(2.0)).astype(np.float64)  # Phi(z)
    upper = np.arange(1, m + 1) / m
    return float(np.maximum(upper - cdf, cdf - (upper - 1.0 / m)).max())


def normality_test(
    index: IndexKind,
    n: int,
    p1,
    sample_count: int,
    seed: int,
    standardization: Standardization = Standardization.CLOSED_FORM,
) -> NormalityResult:
    """Draw samples, standardize, and measure the distance to normality.

    Closed-form standardization uses the verified expectation and variance;
    sample standardization uses the drawn moments.  Parameter points with a
    deterministic chain (n <= 2, or p1 in {0, 1}) are refused: there is
    nothing to standardize.  So are sample standardizations of draws that
    are all equal.
    """
    p1f = float(ProbabilityParams.coerce(p1)[0])
    if n <= 2 or not 0.0 < p1f < 1.0:
        raise ValueError("normality needs n >= 3 and p1 strictly inside (0, 1)")
    values = sample_values(index, n, p1, sample_count, seed)
    if standardization is Standardization.CLOSED_FORM:
        center = expected_index(index, n, p1f)
        scale = math.sqrt(variance_index(index, n, p1f))
    else:
        if values.min() == values.max():  # also a single draw: no spread to scale by
            raise ValueError("sample standardization needs at least two distinct draws")
        center = float(values.mean())
        scale = float(values.std(ddof=1))
    stat = ks_statistic((values - center) / scale)
    return NormalityResult(
        index=index,
        n=n,
        p1=p1f,
        sample_count=sample_count,
        ks_statistic=stat,
        standardization=standardization,
        seed=seed,
    )
