"""Shared exact oracles for the test suite."""

from fractions import Fraction

from pentachain import IndexKind, enumerate_blueprints, incremental_indices


def enumeration_laws(n: int, p) -> dict[IndexKind, tuple]:
    """Exact law of every index by sending each blueprint through the O(n)
    engine: index -> (sorted support, mean, variance), independent of the
    T2-law dynamic program in pentachain.distribution."""
    acc: dict[IndexKind, dict[Fraction, Fraction]] = {kind: {} for kind in IndexKind}
    for blueprint, prob in enumerate_blueprints(n, p):
        bundle = incremental_indices(blueprint)
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
