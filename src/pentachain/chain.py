"""Random pentagonal chain construction, sampling, and enumeration.

A pentagonal chain PG_n is a row of n pentagons (5-cycles) joined by single
bridge edges.  Pentagon k carries vertices x_{k,1}..x_{k,5} in cycle order;
bridge k joins an attachment vertex u_k of pentagon k to the entry vertex
x_{k+1,1} of pentagon k+1.  The first bridge leaves from u_1 = x_{1,1} (all
vertices of a lone pentagon are equivalent); every later attachment vertex is
a random choice between the two non-equivalent candidates:

    Mode1:  u_k = x_{k,2}   (adjacent to the entry vertex), probability p1
    Mode2:  u_k = x_{k,3}   (two steps from the entry vertex), probability 1-p1

The two remaining candidates x_{k,4}, x_{k,5} are mirror images of x_{k,3},
x_{k,2} and produce isomorphic graphs, so the chain is fully described by the
mode sequence.  A ChainBlueprint records one realization: n and the modes for
k = 2..n-1, i.e. max(0, n-2) choices.

Vertex ids are 0-based and pentagon-major: x_{k,j} has id 5*(k-1) + (j-1).
build_graph stores a chain as one neighbour table, which the dense engines read.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Iterator

import numpy as np

__all__ = [
    "AttachmentMode",
    "ChainBlueprint",
    "ProbabilityParams",
    "PentagonChainGraph",
    "build_graph",
    "sample_blueprint",
    "enumerate_blueprints",
]


class AttachmentMode(Enum):
    """Which vertex of a pentagon hosts the outgoing bridge."""

    MODE1 = "M1"  # x_{k,2}, probability p1
    MODE2 = "M2"  # x_{k,3}, probability 1 - p1

    def __init__(self, value: str) -> None:
        # 0-based cycle position of the attachment vertex, a plain attribute
        # so that a walk over a long chain's choices reads it cheaply
        self.position = 1 if value == "M1" else 2


@dataclass(frozen=True)
class ChainBlueprint:
    """One realization of the random chain: pentagon count and mode sequence.

    choices[k-2] picks the attachment vertex of pentagon k (the one sending
    the bridge to pentagon k+1), for k = 2..n-1.  n in {1, 2} has no choices.
    """

    n: int
    choices: tuple[AttachmentMode, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not isinstance(self.choices, tuple):
            object.__setattr__(self, "choices", tuple(self.choices))
        expected = max(0, self.n - 2)
        if len(self.choices) != expected:
            raise ValueError(
                f"blueprint with n={self.n} needs {expected} choices, "
                f"got {len(self.choices)}"
            )

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "choices": [c.value for c in self.choices]}
        )

    @classmethod
    def from_json(cls, text: str) -> "ChainBlueprint":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("blueprint must be a JSON object")
        n, choices = data["n"], data.get("choices", [])
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f'"n" must be an integer, got {n!r}')
        if not isinstance(choices, list):
            raise ValueError('"choices" must be a list of "M1"/"M2" strings')
        return cls(n=n, choices=tuple(AttachmentMode(c) for c in choices))


@dataclass(frozen=True)
class ProbabilityParams:
    """Mode1 probability p1, stored as the value coerce checked: exact for
    rational input (an int stays an int, a Decimal becomes a Fraction), a
    float for a float or a decimal text."""

    p1: Fraction | int | float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p1", self.coerce(self.p1)[0])

    @staticmethod
    def coerce(p1) -> tuple[Fraction | int | float, bool]:
        """The package's one p1 check: (value, exact) for a p1 in [0, 1].

        A Fraction or int is returned as it is, range-checked on its integer
        numerator and denominator, so a value checked once passes again at
        almost no cost; a ProbabilityParams gives its stored value.  A float
        (numpy floats included) or a text without a slash gives a float; a
        text with a slash and any other number go through Fraction() and
        stay exact.  Raises ValueError for a value outside [0, 1], NaN or an
        infinity (Decimal ones included), text that is not a number, or a
        zero denominator.
        """
        if type(p1) is Fraction or type(p1) is int:  # the common case, tested first
            if 0 <= p1.numerator <= p1.denominator:
                return p1, True
            raise ValueError(f"p1 must lie in [0, 1], got {p1}")
        if isinstance(p1, ProbabilityParams):
            return p1.p1, p1.is_exact
        if isinstance(p1, float) or (isinstance(p1, str) and "/" not in p1):
            value, exact = float(p1), False
        elif isinstance(p1, Decimal) and not p1.is_finite():
            raise ValueError(f"p1 must lie in [0, 1], got {p1}")
        else:
            try:
                value, exact = Fraction(p1), True
            except ZeroDivisionError:
                raise ValueError(f"p1 has a zero denominator: {p1!r}") from None
        if not 0 <= value <= 1:
            raise ValueError(f"p1 must lie in [0, 1], got {value}")
        return value, exact

    @classmethod
    def parse(cls, text: str) -> "ProbabilityParams":
        """p1 from command-line text: "1/2" stays exact, "0.5" is a float."""
        return cls(text.strip())

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.p1, float)

    def as_float(self) -> float:
        return float(self.p1)


@dataclass(frozen=True)
class PentagonChainGraph:
    """One chain realization as its read-only (V, width) intp neighbour table:
    row u lists u's neighbours in ascending order, padded with u itself
    (width 3 on a chain).  adjacency, degrees and bridges are derived from it
    on first read; the table is left out of equality and hashing."""

    blueprint: ChainBlueprint
    table: np.ndarray = field(compare=False, repr=False)
    _FORMAT_CHUNK = 1 << 16  # edges per "%d %d\n" format call in edge_list_text

    def __post_init__(self) -> None:
        self.table.flags.writeable = False

    @property
    def n(self) -> int:
        return self.blueprint.n

    @property
    def vertex_count(self) -> int:
        return len(self.table)

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        """Read-only neighbour count of each vertex: its row's cells but the pads."""
        degrees = np.count_nonzero(self.table != np.arange(len(self.table))[:, None], axis=1)
        degrees.flags.writeable = False
        return degrees

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(v for v in row if v != u) for u, row in enumerate(self.table.tolist()))

    @functools.cached_property
    def bridges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u_k, x_{k+1,1}) between two pentagons, in chain order."""
        pairs = self._edge_pairs()
        return tuple(map(tuple, pairs[pairs[:, 0] // 5 != pairs[:, 1] // 5].tolist()))

    def _edge_pairs(self) -> np.ndarray:
        """The (m, 2) edges u < v sorted by (u, v): cells above their row, row-major."""
        rows, cols = np.nonzero(self.table > np.arange(len(self.table))[:, None])
        return np.stack((rows, self.table[rows, cols]), axis=1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ordered (u, v) pairs with u < v, pentagon-major."""
        return map(tuple, self._edge_pairs().tolist())

    def edge_list_text(self) -> str:
        """Edge-list export: one 'u v' pair per line, 0-based ids."""
        flat, step = self._edge_pairs().reshape(-1), 2 * self._FORMAT_CHUNK
        parts = (flat[i : i + step].tolist() for i in range(0, len(flat), step))
        return "".join(("%d %d\n" * (len(part) // 2)) % tuple(part) for part in parts)


def vertex_id(pentagon: int, position: int) -> int:
    """Vertex id for x_{pentagon, position} (both 1-based)."""
    return 5 * (pentagon - 1) + (position - 1)


def attachment_positions(blueprint: ChainBlueprint) -> list[int]:
    """0-based attachment position of each pentagon 1..n-1 (chain order).

    Pentagon 1 sends its bridge from position 0 (x_{1,1}); pentagon k >= 2
    sends from position 1 or 2 per choices[k-2].
    """
    if blueprint.n < 2:
        return []
    return [0] + [choice.position for choice in blueprint.choices]


def build_graph(blueprint: ChainBlueprint) -> PentagonChainGraph:
    """The chain graph of a blueprint: 5n vertices and 6n - 1 edges, 5 cycle
    edges per pentagon plus n - 1 bridges, whose 2(n - 1) endpoints have
    degree 3 and the rest degree 2.  Filled as one neighbour table."""
    n = blueprint.n
    ids = np.arange(5 * n, dtype=np.intp)
    first = ids - ids % 5  # x_{k,1} of each vertex's own pentagon
    # the two cycle neighbours, then a pad that the bridge ends overwrite
    table = np.stack((first + (ids + 4) % 5, first + (ids + 1) % 5, ids), axis=1)
    # bridge k joins u_k, at its attachment position, to x_{k+1,1}
    out = 5 * np.arange(n - 1) + np.array(attachment_positions(blueprint), dtype=np.intp)
    entry = 5 * np.arange(1, n, dtype=np.intp)
    table[out, 2] = entry
    table[entry, 2] = out
    table.sort(axis=1)
    return PentagonChainGraph(blueprint=blueprint, table=table)


def sample_blueprint(
    n: int, p: ProbabilityParams, rng: np.random.Generator
) -> ChainBlueprint:
    """Draw one blueprint: each choice independently Mode1 with prob p1.

    p is a ProbabilityParams or any p1 that ProbabilityParams.coerce takes;
    the draws compare against p1 as a float.  Identical generator state
    yields identical blueprints.  The rng is advanced by exactly
    max(0, n - 2) uniform draws.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p1 = float(ProbabilityParams.coerce(p)[0])
    u = rng.random(max(0, n - 2))  # no draw at all for n <= 2
    modes = (AttachmentMode.MODE1, AttachmentMode.MODE2)
    return ChainBlueprint(n, tuple(modes[x >= p1] for x in u.tolist()))


def enumerate_blueprints(
    n: int, p: ProbabilityParams
) -> Iterator[tuple[ChainBlueprint, Fraction | int | float]]:
    """Yield all 2^max(0, n-2) blueprints with their probabilities.

    p is a ProbabilityParams or any p1 that ProbabilityParams.coerce takes.
    Probabilities are p1^(#Mode1) * (1-p1)^(#Mode2): exact rationals when p
    is exact, floats otherwise; they sum to 1 exactly in rational mode.  The
    generator is lazy and has no length limit: the caller bounds the sweep
    by how much of it it takes.

    Raises
    ------
    ValueError if n < 1 or p1 fails ProbabilityParams.coerce.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    steps = max(0, n - 2)
    p1, _ = ProbabilityParams.coerce(p)
    q1 = 1 - p1
    for modes in itertools.product(
        (AttachmentMode.MODE1, AttachmentMode.MODE2), repeat=steps
    ):
        ones = sum(1 for m in modes if m is AttachmentMode.MODE1)
        prob = p1**ones * q1 ** (steps - ones)
        yield ChainBlueprint(n=n, choices=modes), prob


def all_mode_blueprint(n: int, mode: AttachmentMode) -> ChainBlueprint:
    """Degenerate blueprint using a single attachment mode throughout."""
    return ChainBlueprint(n=n, choices=(mode,) * max(0, n - 2))
