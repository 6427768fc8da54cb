"""The four closed-loop workloads of the pentachain benchmark.

A workload turns a seed into a stream of operation inputs, runs one operation
per input through the package's public functions, and checks every result
against an oracle that does not share the code path under test.  The mix of
inputs repeats every `period` operations; a measured run always ends on a
whole period, so every run sees the same mix whatever its seed.

Each workload also names the calls its traced pass wraps in spans
(`patches`), runs probes after a traced operation (`probe`), and turns the
spans into its per-layer metrics (`layer_metrics`).  See NOTES.md for why
each workload exists and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
from fractions import Fraction

import numpy as np

from pentachain import chain, cli, distribution, indices, metrics, report
from pentachain.chain import AttachmentMode, ChainBlueprint, ProbabilityParams
from pentachain.indices import MOMENT_INDICES, IndexBundle, IndexKind

M1, M2 = AttachmentMode.MODE1, AttachmentMode.MODE2
P1_EXACT = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
# Asymptotic two-sided Kolmogorov constant at alpha = 0.01.
KS_C_001 = 1.628


class CheckFailed(Exception):
    """An operation returned a result its oracle rejects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def t2_exact(n: int, mode2_pentagons) -> int:
    """T2 = sum of (n-k)(k-1) over the mode-2 pentagons k, in Python integers."""
    ks = [int(k) for k in mode2_pentagons]
    return (n + 1) * sum(ks) - sum(k * k for k in ks) - n * len(ks)


def _matrix_bundle(blueprint: ChainBlueprint) -> IndexBundle:
    graph = chain.build_graph(blueprint)
    _, res = metrics.structured_metrics(blueprint)
    return indices.compute_indices(graph, metrics.bfs_all_pairs(graph), res)


class AffineOracle:
    """Index values and moments from `index = base(n) + slope * T2`.

    base(n), the all-mode-1 value, is a cubic in n; it is interpolated here
    through n = 1..4.  slope is the change from one mode flip at n = 3, where
    T2 moves by exactly 1.  Both come from the BFS and structured-matrix
    engines on chains of at most seven pentagons, so the oracle shares no
    code with the carry recurrence, the affine fast path or the closed forms.
    """

    def __init__(self) -> None:
        self.base_points = {
            kind: [
                (n, _matrix_bundle(ChainBlueprint(n, (M1,) * max(0, n - 2))).get(kind))
                for n in range(1, 5)
            ]
            for kind in IndexKind
        }
        one, two = _matrix_bundle(ChainBlueprint(3, (M1,))), _matrix_bundle(ChainBlueprint(3, (M2,)))
        self.slope = {kind: two.get(kind) - one.get(kind) for kind in IndexKind}
        probe = ChainBlueprint(7, (M2, M1, M2, M2, M1))
        expect = self.values(7, t2_exact(7, (2, 4, 5)))
        got = _matrix_bundle(probe)
        if any(got.get(kind) != expect[kind] for kind in IndexKind):
            raise RuntimeError("affine oracle does not reproduce the matrix engines at n = 7")

    def base(self, kind: IndexKind, n: int) -> Fraction:
        points = self.base_points[kind]
        total = Fraction(0)
        for i, (xi, yi) in enumerate(points):
            term = Fraction(yi)
            for j, (xj, _) in enumerate(points):
                if j != i:
                    term *= Fraction(n - xj, xi - xj)
            total += term
        return total

    def values(self, n: int, t2: int) -> dict[IndexKind, Fraction]:
        return {kind: self.base(kind, n) + self.slope[kind] * t2 for kind in IndexKind}

    def matches(self, bundle: IndexBundle, n: int, t2: int) -> bool:
        expect = self.values(n, t2)
        return bundle.n == n and all(bundle.get(kind) == expect[kind] for kind in IndexKind)

    def moments(self, kind: IndexKind, n: int, p1: Fraction) -> tuple[Fraction, Fraction]:
        """Exact mean and variance: T2 is a sum of independent weighted
        Bernoulli(1 - p1) terms, with weights summing to C(n, 3)."""
        weights = [(n - k) * (k - 1) for k in range(2, n)]
        slope = self.slope[kind]
        mean = self.base(kind, n) + slope * (1 - p1) * sum(weights)
        var = slope * slope * p1 * (1 - p1) * sum(w * w for w in weights)
        return mean, var


def _p50(values) -> float:
    return statistics.median(values) if values else float("nan")


class Workload:
    """One seeded closed-loop workload; subclasses fill in the hooks."""

    name = ""
    period = 1
    trace_ops = 1
    cli_runs = 12
    patches: tuple = ()

    def __init__(self, seed: int, workdir: str, oracle: AffineOracle | None = None):
        self.seed = seed
        self.workdir = workdir
        self._oracle = oracle

    @property
    def oracle(self) -> AffineOracle:
        # built on first use, outside set-up and outside any timed operation
        if self._oracle is None:
            self._oracle = AffineOracle()
        return self._oracle

    def input(self, i: int):
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def check(self, x, result) -> None:
        raise NotImplementedError

    def cli_args(self) -> list[str]:
        raise NotImplementedError

    def check_cli(self, stdout: str) -> None:
        raise NotImplementedError

    def probe(self, x, result, tracer) -> None:
        """Extra traced calls after an operation, outside its span."""

    def layer_metrics(self, tracer) -> dict[str, float]:
        raise NotImplementedError


class LongChain(Workload):
    """sample_blueprint then incremental_indices on one long chain."""

    name = "long_chain"
    period = len(P1_EXACT)
    trace_ops = 12
    cli_runs = 4  # each cold `generate` of 262144 pentagons takes seconds
    patches = (
        (chain, "sample_blueprint", "chain.sample_blueprint", False),
        (indices, "incremental_indices", "indices.incremental_indices", False),
    )

    def __init__(self, seed, workdir, oracle=None, n: int = 262144):
        super().__init__(seed, workdir, oracle)
        self.n = n
        self.params = [ProbabilityParams(p) for p in P1_EXACT]
        self.rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def input(self, i):
        return self.params[i % self.period], self.rng.bit_generator.state

    def run(self, x):
        blueprint = chain.sample_blueprint(self.n, x[0], self.rng)
        return blueprint, indices.incremental_indices(blueprint)

    def check(self, x, result):
        params, state = x
        replay = np.random.Generator(np.random.PCG64())
        replay.bit_generator.state = state
        u = replay.random(max(0, self.n - 2))
        t2 = t2_exact(self.n, (np.flatnonzero(u >= params.as_float()) + 2).tolist())
        require(
            self.oracle.matches(result[1], self.n, t2),
            f"bundle at n={self.n}, p1={params.p1} is not base + slope * T2 (T2={t2})",
        )

    def cli_args(self):
        return ["generate", "--n", str(self.n), "--edges-only", "--seed", str(self.seed)]

    def check_cli(self, stdout):
        n = self.n
        got = np.array(stdout.split(), dtype=np.int64).reshape(-1, 2)
        require(len(got) == 6 * n - 1, f"generate printed {len(got)} edges, expected {6 * n - 1}")
        # the CLI seeds a fresh generator with SeedSequence(seed) and p1 = 1/2
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))
        pos = np.concatenate(([0], np.where(rng.random(max(0, n - 2)) < 0.5, 1, 2)))[: n - 1]
        start = 5 * np.arange(n)[:, None]
        cycle = np.stack([start + np.arange(5), start + (np.arange(1, 6) % 5)], axis=-1).reshape(-1, 2)
        bridges = np.stack([5 * np.arange(n - 1) + pos, 5 * np.arange(1, n)], axis=-1)
        expect = np.concatenate([cycle, bridges])

        def keys(edges):
            return np.sort(edges.min(axis=1) * (5 * n) + edges.max(axis=1))

        require(np.array_equal(keys(got), keys(expect)), "generate printed a different edge set")

    def probe(self, x, result, tracer):
        with tracer.span("indices.t2_of_blueprint"):
            indices.t2_of_blueprint(result[0])

    def layer_metrics(self, tracer):
        ops = tracer.total("op")
        return {
            "chain.sample_blueprint_ms": tracer.p50_ms("chain.sample_blueprint"),
            "chain.sample_blueprint_share": tracer.total("chain.sample_blueprint") / ops,
            "indices.incremental_indices_ms": tracer.p50_ms("indices.incremental_indices"),
            "indices.incremental_indices_share": tracer.total("indices.incremental_indices") / ops,
            "indices.t2_of_blueprint_ms": tracer.p50_ms("indices.t2_of_blueprint"),
            "chain.pentagons_per_op": float(self.n),
        }


def _exact_distribution_span(index, n, p1, cap=None):
    # the per-blueprint loop runs while 2^(n-2) <= 4096, i.e. n <= 14
    size = "small" if n <= 14 else "large"
    return f"distribution.exact_distribution_{size}"


class MomentVerify(Workload):
    """moment_report with the enumeration oracle over n = 1..16 and three p1."""

    name = "moment_verify"
    patches = (
        (report, "exact_distribution", _exact_distribution_span, True),
        (report, "expected_index", "closedform.expected_index", False),
        (report, "variance_index", "closedform.variance_index", False),
    )

    def __init__(self, seed, workdir, oracle=None, ns=range(1, 17), cli_nmax: int = 12):
        super().__init__(seed, workdir, oracle)
        # Chains of one or two pentagons have no choices, so p1 changes neither
        # their work nor their answer: they run once, at p1 = 1/2.  With all
        # three p1 the cycle's median would sit exactly between the n = 8 and
        # n = 9 operations, where the latency doubles; now it sits inside n = 9.
        self.cells = [(n, p) for n in ns for p in (P1_EXACT if n > 2 else P1_EXACT[1:2])]
        random.Random(seed).shuffle(self.cells)
        self.period = self.trace_ops = len(self.cells)
        self.cli_nmax = cli_nmax
        self.support_points: list[int] = []

    def input(self, i):
        return self.cells[i % self.period]

    def run(self, x):
        return report.moment_report(*x)

    def check(self, x, result):
        n, p1 = x
        problems = report.unexplained_failures([result])
        require(not problems, f"unexplained failures: {problems}")
        require(
            [row.index for row in result.rows] == list(MOMENT_INDICES),
            f"report at n={n} does not cover the four moment indices",
        )
        for row in result.rows:
            mean, var = self.oracle.moments(row.index, n, p1)
            require(
                row.expected_oracle == mean and row.variance_oracle == var,
                f"enumeration moments of {row.index.value} at n={n}, p1={p1} are off",
            )
            require(
                row.expected_verified == mean and row.variance == var,
                f"closed forms of {row.index.value} at n={n}, p1={p1} are off",
            )

    def cli_args(self):
        return ["report", "--nmax", str(self.cli_nmax), "--p1", "1/5,1/2,4/5"]

    def check_cli(self, stdout):
        payload = json.loads(stdout)
        require(payload["unexplained_failures"] == [], "report lists unexplained failures")
        rows = [row for rep in payload["reports"] for row in rep["rows"]]
        require(len(rows) == 4 * self.cli_nmax * 3, f"report printed {len(rows)} rows")
        for row in rows:
            kind, n = IndexKind(row["index"]), row["n"]
            mean, _ = self.oracle.moments(kind, n, Fraction(row["p1"]).limit_denominator(10))
            require(
                row["expected_verified_match"] and row["variance_match"]
                and math.isclose(row["expected_oracle"], float(mean), rel_tol=1e-12),
                f"report row {kind.value} n={n} p1={row['p1']} is off",
            )

    def probe(self, x, result, tracer):
        n, p1 = x
        for size in ("small", "large"):
            laws = tracer.kept.pop(f"distribution.exact_distribution_{size}", [])
            self.support_points.extend(len(law.support) for law in laws)
        if n <= 14:
            with tracer.span("chain.enumerate_blueprints"):
                for _ in chain.enumerate_blueprints(n, ProbabilityParams(p1)):
                    pass

    def layer_metrics(self, tracer):
        ops = tracer.total("op")
        small = "distribution.exact_distribution_small"
        large = "distribution.exact_distribution_large"
        return {
            "distribution.exact_distribution_small_ms": tracer.p50_ms(small),
            "distribution.exact_distribution_small_share": tracer.total(small) / ops,
            "distribution.exact_distribution_large_ms": tracer.p50_ms(large),
            "distribution.exact_distribution_large_share": tracer.total(large) / ops,
            "chain.enumerate_blueprints_ms": tracer.p50_ms("chain.enumerate_blueprints"),
            "closedform.expected_index_us": 1e3 * tracer.p50_ms("closedform.expected_index"),
            "closedform.variance_index_us": 1e3 * tracer.p50_ms("closedform.variance_index"),
            "report.self_ms": 1e3 * _p50(tracer.self_times("op")),
            "distribution.exact_support_points": statistics.fmean(self.support_points),
        }


class McNormality(Workload):
    """monte_carlo of the four moment indices, then four normality tests."""

    name = "mc_normality"
    period = len(P1_EXACT)
    trace_ops = 12
    patches = (
        (distribution, "monte_carlo", "distribution.monte_carlo", False),
        (distribution, "sample_values", "distribution.sample_values", False),
        (distribution, "ks_statistic", "distribution.ks_statistic", False),
    )

    def __init__(self, seed, workdir, oracle=None, n: int = 100,
                 mc_samples: int = 100_000, ks_samples: int = 10_000):
        super().__init__(seed, workdir, oracle)
        self.n, self.mc_samples, self.ks_samples = n, mc_samples, ks_samples

    def input(self, i):
        return float(P1_EXACT[i % self.period]), self.seed * 1_000_000 + i

    def run(self, x):
        p1, seed = x
        stats = distribution.monte_carlo(MOMENT_INDICES, self.n, p1, self.mc_samples, seed, workers=1)
        tests = [
            distribution.normality_test(kind, self.n, p1, self.ks_samples, seed)
            for kind in MOMENT_INDICES
        ]
        return stats, tests

    def check(self, x, result):
        p1, seed = x
        stats, tests = result
        limit = 2 * KS_C_001 / math.sqrt(self.ks_samples)
        for kind, test in zip(MOMENT_INDICES, tests):
            mean, var = self.oracle.moments(kind, self.n, Fraction(p1))
            se = math.sqrt(float(var) / self.mc_samples)
            stat = stats[kind]
            require(stat.count == self.mc_samples, f"{kind.value}: {stat.count} samples drawn")
            require(
                abs(stat.mean - float(mean)) <= 6 * se,
                f"{kind.value} p1={p1} seed={seed}: MC mean {stat.mean} is "
                f"{abs(stat.mean - float(mean)) / se:.1f} SE from {float(mean)}",
            )
            require(
                test.index is kind and test.sample_count == self.ks_samples
                and test.ks_statistic <= limit,
                f"{kind.value} p1={p1} seed={seed}: KS {test.ks_statistic} above {limit}",
            )

    def cli_args(self):
        return ["report", "--normality", "--n", str(self.n),
                "--samples", str(self.ks_samples), "--seed", str(self.seed)]

    def check_cli(self, stdout):
        rows = json.loads(stdout)["normality"]
        limit = 2 * KS_C_001 / math.sqrt(self.ks_samples)
        require(
            [row["index"] for row in rows] == [k.value for k in MOMENT_INDICES],
            "normality report does not cover the four moment indices",
        )
        require(all(row["ks_statistic"] <= limit for row in rows), "normality KS above 2x threshold")

    def layer_metrics(self, tracer):
        ops = tracer.total("op")
        mc = "distribution.monte_carlo"
        return {
            "distribution.monte_carlo_ms": tracer.p50_ms(mc),
            "distribution.monte_carlo_share": tracer.total(mc) / ops,
            "distribution.sample_values_ms": tracer.p50_ms("distribution.sample_values"),
            "distribution.ks_statistic_ms": tracer.p50_ms("distribution.ks_statistic"),
            "distribution.mc_samples_per_s": self.mc_samples * len(tracer.durations(mc)) / tracer.total(mc),
        }


class EngineCheck(Workload):
    """`pentachain indices --blueprint FILE`, in process, on short chains."""

    name = "engine_check"
    trace_ops = 96
    cli_runs = 24  # each takes about half a second
    patches = (
        (cli, "build_graph", "chain.build_graph", False),
        (cli, "bfs_all_pairs", "metrics.bfs_all_pairs", False),
        (cli, "laplacian_resistance", "metrics.laplacian_resistance", True),
        (cli, "structured_metrics", "metrics.structured_metrics", True),
        (cli, "compute_indices", "indices.compute_indices", False),
        (cli, "incremental_indices", "indices.incremental_indices", False),
    )

    def __init__(self, seed, workdir, oracle=None, nmax: int = 24, copies: int = 4):
        super().__init__(seed, workdir, oracle)
        rng = random.Random(seed)
        # every n in 1..nmax equally often, so the size mix is the same at every seed
        pool = [
            (n, [rng.choice(("M1", "M2")) for _ in range(max(0, n - 2))])
            for n in range(1, nmax + 1)
            for _ in range(copies)
        ]
        rng.shuffle(pool)
        self.pool = []
        for i, (n, modes) in enumerate(pool):
            path = os.path.join(workdir, f"blueprint-{i:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"n": n, "choices": modes}, handle)
            self.pool.append((path, n, modes))
        self.period = self.trace_ops = len(self.pool)
        self.gaps: list[float] = []

    def input(self, i):
        return self.pool[i % self.period]

    def run(self, x):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["indices", "--blueprint", x[0]])
        return code, out.getvalue()

    def _check_bundle(self, n, modes, text):
        bundle = IndexBundle.from_json(text)
        blueprint = ChainBlueprint(n, tuple(AttachmentMode(c) for c in modes))
        t2 = t2_exact(n, [k for k, c in enumerate(modes, start=2) if c == "M2"])
        require(bundle == indices.incremental_indices(blueprint), f"n={n}: bundle differs from incremental_indices")
        require(self.oracle.matches(bundle, n, t2), f"n={n}: bundle is not base + slope * T2")

    def check(self, x, result):
        path, n, modes = x
        code, text = result
        require(code == 0, f"indices exited {code} on {os.path.basename(path)}")
        self._check_bundle(n, modes, text)

    def _cli_entry(self):
        return max(self.pool, key=lambda entry: entry[1])

    def cli_args(self):
        return ["indices", "--blueprint", self._cli_entry()[0]]

    def check_cli(self, stdout):
        _, n, modes = self._cli_entry()
        self._check_bundle(n, modes, stdout)

    def probe(self, x, result, tracer):
        laps = tracer.kept.pop("metrics.laplacian_resistance", [])
        structs = tracer.kept.pop("metrics.structured_metrics", [])
        self.gaps.extend(_gap(lap, res) for lap, (_, res) in zip(laps, structs))

    def layer_metrics(self, tracer):
        ops = tracer.total("op")
        out = {}
        for span in ("chain.build_graph", "metrics.bfs_all_pairs", "metrics.laplacian_resistance",
                     "metrics.structured_metrics", "indices.compute_indices"):
            out[f"{span}_ms"] = tracer.p50_ms(span)
            out[f"{span}_share"] = tracer.total(span) / ops
        self_times = tracer.self_times("op")
        out["cli.self_ms"] = 1e3 * _p50(self_times)
        out["cli.self_share"] = sum(self_times) / ops
        out["metrics.vertices_per_op"] = statistics.fmean(5 * n for _, n, _ in self.pool)
        out["metrics.laplacian_max_gap"] = max(self.gaps)
        # a fixed probe chain, not a seeded one: the gap differs from chain to
        # chain (3e-10 to 5e-9 at n = 200), and the all-mode-2 chain, the
        # longest, is above the 1e-9 tolerance of verify_engines
        probe = chain.all_mode_blueprint(200, M2)
        lap = metrics.laplacian_resistance(chain.build_graph(probe))
        out["metrics.laplacian_max_gap_n200"] = _gap(lap, metrics.structured_metrics(probe)[1])
        return out


def _gap(lap, res) -> float:
    """Largest |Laplacian - structured| resistance entry."""
    return float(np.abs(lap.as_float() - res.as_float()).max())


WORKLOADS = {wl.name: wl for wl in (LongChain, MomentVerify, McNormality, EngineCheck)}

# Reduced sizes for the benchmark's own tests; same code paths (the long
# chain stays above the carry-loop limit, the moment cycle keeps one bulk-DP n).
TINY = {
    "long_chain": {"n": 5000},
    "moment_verify": {"ns": (1, 2, 5, 15), "cli_nmax": 3},
    "mc_normality": {"n": 30, "mc_samples": 4000, "ks_samples": 2000},
    "engine_check": {"nmax": 6, "copies": 2},
}


def make(name: str, seed: int, workdir: str, tiny: bool = False, oracle=None) -> Workload:
    return WORKLOADS[name](seed, workdir, oracle, **(TINY[name] if tiny else {}))

