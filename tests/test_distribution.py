"""Exact distributions, Monte Carlo streams, and the normality test."""

import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import pentachain.distribution as distribution
from pentachain import (
    MOMENT_INDICES,
    IndexKind,
    NormalityResult,
    ProbabilityParams,
    SampleStats,
    Standardization,
    exact_distribution,
    expected_index,
    ks_statistic,
    monte_carlo,
    normality_test,
    affine_in_t2,
    sample_values,
    t2_weights,
    variance_index,
)

from helpers import count_calls, enumeration_laws, enumeration_moments, python_t2_law


def test_two_atom_law():
    d = exact_distribution(IndexKind.GUTMAN, 3, Fraction(1, 2))
    assert d.support == ((1694, Fraction(1, 2)), (1838, Fraction(1, 2)))
    assert d.mean == 1766 and d.variance == 5184
    d = exact_distribution(IndexKind.KF_PLUS, 3, Fraction(1, 2))
    assert d.support == ((1194, Fraction(1, 2)), (1242, Fraction(1, 2)))
    assert d.variance == 576


def test_deterministic_atoms():
    for n, value in ((1, 60), (2, 529)):
        d = exact_distribution(IndexKind.GUTMAN, n, Fraction(1, 3))
        assert d.support == ((value, 1),)
        assert d.mean == value and d.variance == 0


@pytest.mark.parametrize("index", MOMENT_INDICES)
def test_distribution_moments_match_closed_forms(index):
    for n in (4, 6):
        for p in (Fraction(1, 5), Fraction(1, 2)):
            d = exact_distribution(index, n, p)
            assert d.mean == expected_index(index, n, p)
            assert d.variance == variance_index(index, n, p)


@given(
    st.integers(1, 8),
    st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(5, 7)]),
    st.sampled_from(list(IndexKind)),
)
@settings(max_examples=30, deadline=None)
def test_distribution_invariants(n, p, index):
    d = exact_distribution(index, n, p)
    values = [v for v, _ in d.support]
    probs = [q for _, q in d.support]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    assert all(q > 0 for q in probs)
    assert sum(probs) == 1


def test_float_p1_is_exactified():
    # float input converts through its binary expansion; probabilities still
    # sum to exactly 1
    d = exact_distribution(IndexKind.SCHULTZ, 6, 0.3)
    assert sum(q for _, q in d.support) == 1
    assert d.p1 == Fraction(0.3)


def test_bulk_path_matches_enumeration():
    # the T2-law dynamic program against the per-blueprint sweep, all indices
    for p in (Fraction(2, 5), 0.3):
        exact_p = ProbabilityParams(Fraction(p))
        for n in range(1, 11):
            for kind, (support, mean, variance) in enumeration_laws(n, exact_p).items():
                d = exact_distribution(kind, n, p)
                assert d.support == support
                assert d.mean == mean and d.variance == variance


def test_mapped_laws_equal_per_index_laws():
    # for_index reuses one T2 law; running the dynamic program per index agrees
    for p in (Fraction(2, 7), 0.3):
        for n in range(1, 11):
            first = exact_distribution(IndexKind.WIENER, n, p)
            assert "support" not in vars(first)  # built on first read only
            q = Fraction(p)
            assert first.t2_mean == (1 - q) * math.comb(n, 3)
            assert first.t2_variance == q * (1 - q) * sum(w * w for w in t2_weights(n).tolist())
            for kind in IndexKind:
                own, mapped = exact_distribution(kind, n, p), first.for_index(kind)
                assert mapped.law is first.law
                assert mapped == own
                assert mapped.support == own.support
                assert (mapped.mean, mapped.variance) == (own.mean, own.variance)


def test_law_and_index_moments_are_built_on_first_read(monkeypatch):
    # the call takes the T2 moments and stops; at n = 40, p1 = 1/2 the sums
    # run on Python integers, at n = 16, p1 = 1/5 on int64
    calls = count_calls(monkeypatch, distribution, ("index_moments",))
    for n, p1 in ((16, Fraction(1, 5)), (40, Fraction(1, 2))):
        calls["index_moments"] = 0
        d = exact_distribution(IndexKind.GUTMAN, n, p1)
        t2 = d._t2
        assert calls["index_moments"] == 0
        assert not {"mean", "variance", "support"} & set(vars(d))
        assert "pairs" not in vars(t2)
        mapped = d.for_index(IndexKind.KF_PLUS)
        assert mapped._t2 is t2 and "pairs" not in vars(t2)
        assert type(d.mean) is Fraction and type(d.variance) is Fraction
        assert calls["index_moments"] == 2
        assert d.mean == expected_index(IndexKind.GUTMAN, n, p1)
        assert mapped.law is d.law and vars(t2)["pairs"] is d.law
        assert all(type(t) is int and type(c) is int for t, c in d.law)


def test_bulk_path_reaches_past_the_enumeration_cap():
    # 2^28 realizations, yet the weight-count dynamic program stays small
    d = exact_distribution(IndexKind.KF_PLUS, 30, Fraction(1, 2))
    assert d.mean == expected_index(IndexKind.KF_PLUS, 30, Fraction(1, 2))
    assert d.variance == variance_index(IndexKind.KF_PLUS, 30, Fraction(1, 2))


def test_exact_law_stays_exact_at_large_n():
    # 2^68 chains; the numerators run far past int64
    d = exact_distribution(IndexKind.KF_PLUS, 70, Fraction(1, 2))
    assert d.mean == expected_index(IndexKind.KF_PLUS, 70, Fraction(1, 2))
    assert d.variance == variance_index(IndexKind.KF_PLUS, 70, Fraction(1, 2))


def test_t2_law_total_is_checked(monkeypatch):
    # a law that loses one choice no longer sums to b^(n-2)
    monkeypatch.setattr(distribution, "t2_weights", lambda n: t2_weights(n)[1:])
    with pytest.raises(ArithmeticError):
        exact_distribution(IndexKind.GUTMAN, 6, Fraction(1, 3))


def test_t2_law_total_check_survives_python_dash_o():
    # a real raise, not an assert: `python -O` keeps it, on both dtypes
    script = (
        "import pentachain.distribution as d\n"
        "from fractions import Fraction\n"
        "if __debug__:\n"
        "    raise SystemExit('not optimized')\n"
        "weights = d.t2_weights\n"
        "d.t2_weights = lambda n: weights(n)[1:]\n"
        "for n, p1 in ((6, Fraction(1, 3)), (66, Fraction(1, 2))):\n"
        "    try:\n"
        "        d.exact_distribution(d.IndexKind.GUTMAN, n, p1)\n"
        "    except ArithmeticError:\n"
        "        continue\n"
        "    raise SystemExit(f'no ArithmeticError at n={n}')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


class _DtypeSpy:
    """Stands in for numpy inside distribution and records each array dtype."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype):
        self.dtypes.append(dtype)
        return np.zeros(shape, dtype=dtype)


@pytest.mark.parametrize(
    "n, p1",
    [
        # b^(n-2) = 2^62, 2^63, 2^64 for p1 = 1/2
        (64, Fraction(1, 2)),
        (65, Fraction(1, 2)),
        (66, Fraction(1, 2)),
        # 3^39 < 2^63 < 3^40
        (41, Fraction(1, 3)),
        (42, Fraction(1, 3)),
        (40, Fraction(0)),
        (40, Fraction(1)),
    ],
    ids=str,
)
def test_int64_and_object_passes_equal_the_python_integer_law(n, p1, monkeypatch):
    spy = _DtypeSpy()
    monkeypatch.setattr(distribution, "np", spy)
    d = exact_distribution(IndexKind.KF_STAR, n, p1)
    denom = p1.denominator ** (n - 2)
    assert spy.dtypes == [np.int64 if denom < 2**63 else object]
    law = python_t2_law(n, p1)
    assert d.law == law
    assert all(type(t) is int and type(c) is int for t, c in d.law)
    s1 = sum(t * c for t, c in law)
    s2 = sum(t * t * c for t, c in law)
    assert d.t2_mean == Fraction(s1, denom)
    assert d.t2_variance == Fraction(s2 * denom - s1 * s1, denom * denom)
    assert d.mean == expected_index(IndexKind.KF_STAR, n, p1)
    assert d.variance == variance_index(IndexKind.KF_STAR, n, p1)


def assert_law_is_exact(n, p1):
    d = exact_distribution(IndexKind.GUTMAN, n, p1)
    law = python_t2_law(n, p1)
    assert d.law == law
    denom = p1.denominator ** max(0, n - 2)
    assert sum(c for _, c in law) == denom
    s1 = sum(t * c for t, c in law)
    s2 = sum(t * t * c for t, c in law)
    assert d.t2_mean == Fraction(s1, denom)
    assert d.t2_variance == Fraction(s2 * denom - s1 * s1, denom * denom)


@pytest.mark.parametrize(
    "p1",
    [Fraction(0), Fraction(1), Fraction(1, 5), Fraction(1, 2), Fraction(4, 5),
     Fraction(1, 3), Fraction(3, 10), Fraction(2, 7)],
    ids=str,
)
def test_grouped_rounds_equal_the_python_integer_law(p1):
    # both parities of n - 2 (a middle single round or none), a or c equal
    # to 1 or 0, and every dtype and moment-sum switch below n = 40
    for n in range(1, 41):
        assert_law_is_exact(n, p1)


@pytest.mark.parametrize("n, p1", [(69, Fraction(3, 10)), (70, Fraction(2, 7))], ids=str)
def test_grouped_rounds_stay_exact_on_python_integers(n, p1):
    assert_law_is_exact(n, p1)


@pytest.mark.parametrize(
    "n, p1",
    [
        # b^(n-2) * C(n,3)^2 straddles 2^63 between each pair
        (38, Fraction(1, 2)),
        (39, Fraction(1, 2)),
        (20, Fraction(1, 5)),
        (21, Fraction(1, 5)),
        (20, Fraction(4, 5)),
        (21, Fraction(4, 5)),
    ],
    ids=str,
)
def test_moments_are_exact_on_both_sides_of_the_int64_sum_bound(n, p1):
    below = n in (38, 20)
    assert (p1.denominator ** (n - 2) * math.comb(n, 3) ** 2 < 2**63) is below
    assert_law_is_exact(n, p1)
    d = exact_distribution(IndexKind.GUTMAN, n, p1)
    q = 1 - p1
    assert d.t2_mean == q * math.comb(n, 3)
    assert d.t2_variance == p1 * q * sum(w * w for w in t2_weights(n).tolist())


def test_sampling_refuses_int64_overflow():
    n = 3_810_780  # smallest n with C(n, 3) >= 2^63
    assert math.comb(n, 3) >= 2**63 > math.comb(n - 1, 3)
    with pytest.raises(ValueError, match="overflows int64"):
        monte_carlo(MOMENT_INDICES, n, 0.5, 10, 0)
    with pytest.raises(ValueError, match="overflows int64"):
        sample_values(IndexKind.GUTMAN, n, 0.5, 10, 0)


@pytest.mark.parametrize(
    "n, p1, count",
    [
        (0, 0.5, 3),
        (-4, 0.5, 3),
        (6, 1.5, 3),
        (6, -0.1, 3),
        (6, math.nan, 3),
        (6, 0.5, 0),
        # above 1, though float() rounds it to 1.0: p1 is range-checked exactly
        (6, Fraction(10**20 + 1, 10**20), 3),
    ],
)
def test_sampling_rejects_bad_arguments(n, p1, count):
    with pytest.raises(ValueError):
        monte_carlo(IndexKind.GUTMAN, n, p1, count, 0)
    with pytest.raises(ValueError):
        sample_values(IndexKind.GUTMAN, n, p1, count, 0)


def test_distribution_validation():
    with pytest.raises(ValueError):
        exact_distribution(IndexKind.GUTMAN, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        exact_distribution(IndexKind.GUTMAN, 3, Fraction(3, 2))
    for bad in (math.nan, math.inf):  # refused by the range check, not by Fraction()
        with pytest.raises(ValueError, match=r"p1 must lie in \[0, 1\]"):
            exact_distribution(IndexKind.GUTMAN, 3, bad)


def test_distribution_csv():
    assert exact_distribution(IndexKind.KF_STAR, 3, Fraction(1, 2)).support == (
        (Fraction(6586, 5), Fraction(1, 2)),
        (Fraction(6874, 5), Fraction(1, 2)),
    )


def test_sample_stats_guards():
    def stats(count, m2):
        return SampleStats(IndexKind.GUTMAN, count, 4.0, m2, 4.0, 4.0, seed=0)

    assert stats(0, 0.0).variance == 0.0
    assert stats(1, 0.0).variance == 0.0
    assert stats(2, 0.5).variance == 0.5


def test_monte_carlo_deterministic_and_worker_invariant():
    runs = [
        monte_carlo(MOMENT_INDICES, 20, Fraction(1, 2), 3000, 99, workers=w)
        for w in (1, 1, 2)
    ]
    assert runs[0] == runs[1] == runs[2]
    stats = runs[0][IndexKind.GUTMAN]
    assert stats.count == 3000 and stats.seed == 99


def test_monte_carlo_worker_invariant_over_multi_chunk_streams():
    # 64 * 4096 + 1 draws: stream 0 runs two chunks, the others one full chunk
    count = distribution._STREAMS * distribution._CHUNK + 1
    runs = [monte_carlo(MOMENT_INDICES, 6, Fraction(1, 3), count, 5, workers=w) for w in (1, 2)]
    assert runs[0] == runs[1]
    assert runs[0][IndexKind.GUTMAN].count == count


def test_process_pool_is_bounded_by_the_task_count(monkeypatch):
    # a fork pool starts all its processes at the first submit; a thread pool
    # that records its size stands in for it, so no process starts
    sizes = []

    class Recorder(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    p1, seed = Fraction(1, 3), 7
    serial = {count: monte_carlo(MOMENT_INDICES, 10, p1, count, seed) for count in (1, 3)}
    # the stand-in is in place before a large request can reach a real pool
    assert monte_carlo(MOMENT_INDICES, 10, p1, 3, seed, workers=2) == serial[3]
    assert sizes == [2]
    # three draws make three tasks, and one task needs no pool
    assert monte_carlo(MOMENT_INDICES, 10, p1, 3, seed, workers=10**5) == serial[3]
    assert monte_carlo(MOMENT_INDICES, 10, p1, 1, seed, workers=2) == serial[1]
    assert sizes == [2, 3]


def test_draws_are_capped_in_uniforms_without_changing_the_values(monkeypatch):
    # 643 draws: streams 0-2 take 11 chains, the other 61 take 10
    p1, count, seed = Fraction(1, 3), 643, 4
    before = {
        n: (
            sample_values(IndexKind.GUTMAN, n, p1, count, seed),
            monte_carlo(MOMENT_INDICES, n, p1, count, seed),
        )
        for n in (10, 100)
    }
    shapes = []
    stream_rng = distribution._stream_rng

    class Recording:
        """A stream's generator that records the shape of every draw."""

        def __init__(self, rng):
            self.rng = rng

        def random(self, shape):
            shapes.append(shape)
            return self.rng.random(shape)

    monkeypatch.setattr(distribution, "_stream_rng", lambda *args: Recording(stream_rng(*args)))
    monkeypatch.setattr(distribution, "_DRAW_UNIFORMS", 64)
    # at a 64-uniform cap, n = 10 draws 8 chains of 8 choices at a time, and
    # n = 100, whose 98 choices exceed the cap, one chain at a time
    want = {10: [(8, 8), (3, 8)] * 3 + [(8, 8), (2, 8)] * 61, 100: [(1, 98)] * count}
    for n, (values, stats) in before.items():
        shapes.clear()
        assert sample_values(IndexKind.GUTMAN, n, p1, count, seed).tobytes() == values.tobytes()
        assert shapes == want[n]
        assert monte_carlo(MOMENT_INDICES, n, p1, count, seed) == stats


def test_monte_carlo_fields_are_exact_rationals_rounded_once():
    # Schultz has an integer base and slope: its draws are exact integers in
    # float64, so each T2 draw is recovered exactly from them
    n, p1, m, seed = 12, Fraction(2, 5), 9000, 8
    schultz_base, schultz_slope = affine_in_t2(IndexKind.SCHULTZ, n)
    assert schultz_base.denominator == schultz_slope.denominator == 1
    values = sample_values(IndexKind.SCHULTZ, n, p1, m, seed)
    t2 = [(Fraction(int(v)) - schultz_base) / schultz_slope for v in values]
    assert all(t.denominator == 1 and v == int(v) for t, v in zip(t2, values))
    mean_t2 = sum(t2) / m
    m2_t2 = sum((t - mean_t2) ** 2 for t in t2)
    stats = monte_carlo(MOMENT_INDICES, n, p1, m, seed)
    for kind in MOMENT_INDICES:
        base, slope = affine_in_t2(kind, n)
        got = stats[kind]
        assert got.count == m
        assert got.mean == float(base + slope * mean_t2)
        assert got.m2 == float(slope * slope * m2_t2)
        assert got.min == float(base + slope * min(t2))
        assert got.max == float(base + slope * max(t2))


@pytest.mark.parametrize("n", [658, 659, 3_000_000])
def test_stream_stats_are_exact_on_both_sides_of_the_int64_bound(n, monkeypatch):
    # 659 is the smallest n with _CHUNK * C(n,3)^2 >= 2^63: a full chunk of
    # the largest T2 would wrap an int64 sum of squares from there on
    top = math.comb(n, 3)
    chunk = distribution._CHUNK
    chunks = [np.full(chunk, top, dtype=np.int64), np.array([0, top - 1], dtype=np.int64)]
    monkeypatch.setattr(distribution, "_t2_chunks", lambda *args: iter(chunks))
    got = distribution._stream_stats((0, 0, chunk + 2, n, 0.5))
    assert got == (chunk + 2, (chunk + 1) * top - 1, chunk * top * top + (top - 1) ** 2, 0, top)
    assert all(type(x) is int for x in got)


def test_monte_carlo_matches_exact_law():
    # n = 2 is deterministic: every draw is the single atom
    stats = monte_carlo((IndexKind.GUTMAN,), 2, Fraction(1, 2), 500, 1)[
        IndexKind.GUTMAN
    ]
    assert stats.mean == 529.0 and stats.variance == 0.0
    assert stats.min == stats.max == 529.0


def test_monte_carlo_near_closed_forms():
    m = 20000
    stats = monte_carlo(MOMENT_INDICES, 10, Fraction(1, 2), m, 7)
    for index in MOMENT_INDICES:
        mean = expected_index(index, 10, 0.5)
        var = variance_index(index, 10, 0.5)
        se = math.sqrt(var / m)
        assert abs(stats[index].mean - mean) < 4 * se
        assert abs(stats[index].variance - var) < 0.10 * var


def test_sample_values_consistent_with_stats():
    values = sample_values(IndexKind.SCHULTZ, 12, Fraction(1, 2), 5000, 31)
    assert values.shape == (5000,)
    again = sample_values(IndexKind.SCHULTZ, 12, Fraction(1, 2), 5000, 31)
    assert np.array_equal(values, again)
    stats = monte_carlo((IndexKind.SCHULTZ,), 12, Fraction(1, 2), 5000, 31)[
        IndexKind.SCHULTZ
    ]
    assert stats.count == values.size
    assert math.isclose(stats.mean, values.mean(), rel_tol=1e-12)
    assert math.isclose(stats.m2, ((values - values.mean()) ** 2).sum(), rel_tol=1e-9)
    assert stats.min == values.min() and stats.max == values.max()


def test_ks_statistic_hand_values():
    assert ks_statistic([0.0]) == 0.5
    # one point far right of 0: the sample CDF is 0 just below it while Phi
    # is near 1 there, so the lower side cdf - (i - 1)/m decides
    assert math.isclose(ks_statistic([3.0]), NormalDist().cdf(3.0), rel_tol=1e-12)
    # quantile grid z_i = Phi^{-1}((i - 1/2) / m) realizes the minimum 1/(2m)
    m = 1000
    grid = [NormalDist().inv_cdf((i - 0.5) / m) for i in range(1, m + 1)]
    assert math.isclose(ks_statistic(grid), 0.5 / m, rel_tol=1e-9)


def test_normality_refusals():
    with pytest.raises(ValueError):
        normality_test(IndexKind.GUTMAN, 2, 0.5, 100, 0)
    with pytest.raises(ValueError):
        normality_test(IndexKind.GUTMAN, 10, 0.0, 100, 0)
    with pytest.raises(ValueError):
        normality_test(IndexKind.GUTMAN, 10, 1.0, 100, 0)
    # sample standardization has no spread to divide by: one draw, or two
    # equal draws (seed 0 draws 1838 twice at n = 3)
    for count in (1, 2):
        with pytest.raises(ValueError, match="two distinct draws"):
            normality_test(IndexKind.GUTMAN, 3, 0.5, count, 0, Standardization.SAMPLE)


def test_normality_goes_through_the_names_the_benchmark_traces(monkeypatch):
    # perfbench's mc_normality times these two names on distribution
    calls = count_calls(monkeypatch, distribution, ("sample_values", "ks_statistic"))
    normality_test(IndexKind.GUTMAN, 10, Fraction(1, 5), 200, 0)
    assert calls == {"sample_values": 1, "ks_statistic": 1}


@pytest.mark.parametrize("standardization", list(Standardization))
@pytest.mark.parametrize("n, p1", [(30, Fraction(1, 5)), (100, Fraction(1, 2))])
def test_every_moment_index_reads_the_gutman_statistic(n, p1, standardization):
    # every moment index is base + slope * T2 with slope > 0, so all four
    # standardize to one standardized T2; report --normality relies on it
    m, seed = 2000, 11
    want = normality_test(IndexKind.GUTMAN, n, p1, m, seed, standardization).ks_statistic
    for kind in MOMENT_INDICES[1:]:
        got = normality_test(kind, n, p1, m, seed, standardization).ks_statistic
        assert abs(got - want) <= 1e-12, kind


def test_normality_far_from_normal_at_small_n():
    # two-atom law: the standardized sample is +-1, KS stays near Phi(-1)
    result = normality_test(IndexKind.GUTMAN, 3, 0.5, 2000, 5)
    assert result.ks_statistic > 0.25
    assert not result.passes(0.01)


def test_normality_close_to_normal_at_large_n():
    result = normality_test(IndexKind.GUTMAN, 100, 0.5, 4000, 5)
    assert result.passes(0.01) and result.passes(0.05)


def test_standardizations_agree_at_scale():
    closed = normality_test(IndexKind.KF_PLUS, 100, 0.5, 100000, 42)
    sampled = normality_test(
        IndexKind.KF_PLUS, 100, 0.5, 100000, 42, Standardization.SAMPLE
    )
    assert abs(closed.ks_statistic - sampled.ks_statistic) < 0.005
    # drawn moments sit on the closed forms at this sample size
    values = sample_values(IndexKind.KF_PLUS, 100, 0.5, 100000, 42)
    center = expected_index(IndexKind.KF_PLUS, 100, 0.5)
    scale = math.sqrt(variance_index(IndexKind.KF_PLUS, 100, 0.5))
    standardized = (values - center) / scale
    assert abs(standardized.mean()) < 0.02
    assert abs(standardized.var(ddof=1) - 1.0) < 0.03


def test_sample_standardization_uses_the_ddof_1_deviation():
    # the KS value recomputed in plain Python from the same draws
    m = 300
    result = normality_test(IndexKind.GUTMAN, 10, Fraction(1, 5), m, 3, Standardization.SAMPLE)
    values = sample_values(IndexKind.GUTMAN, 10, Fraction(1, 5), m, 3).tolist()
    mean = sum(values) / m
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (m - 1))
    phi = [NormalDist().cdf((v - mean) / sd) for v in sorted(values)]
    want = max(max(i / m - f, f - (i - 1) / m) for i, f in enumerate(phi, start=1))
    assert math.isclose(result.ks_statistic, want, rel_tol=1e-9)


def test_normality_result_thresholds():
    result = NormalityResult(
        index=IndexKind.GUTMAN,
        n=100,
        p1=0.5,
        sample_count=10000,
        ks_statistic=0.01,
        standardization=Standardization.CLOSED_FORM,
        seed=0,
    )
    assert math.isclose(result.threshold(0.01), 1.628 / 100.0)
    assert math.isclose(result.threshold(0.05), 1.358 / 100.0)
    assert result.passes(0.01) and result.passes(0.05)
    # a statistic exactly at the threshold does not pass
    at_threshold = dataclasses.replace(result, ks_statistic=result.threshold(0.01))
    assert not at_threshold.passes(0.01)
    with pytest.raises(ValueError):
        result.threshold(0.10)
    payload = result.to_json()
    assert '"ks_statistic": 0.01' in payload and '"thresholds"' in payload
