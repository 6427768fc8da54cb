"""Command-line front end: generate, indices, report.

Exit code contract: 0 success, 2 usage or invalid arguments, 3 engine
disagreement, 4 formula mismatch the discrepancy registry cannot explain.
p1 accepts an exact rational string like "1/2" (enabling the exact-arithmetic
pipelines) or a decimal like "0.5"; every seeded command is bit-reproducible
for a fixed seed regardless of worker count, and the process pool has at
most one worker per sample stream.  report --normality prints one statistic,
from one draw, for the four moment indices: each is base + slope * T2 with
slope > 0, so all four standardize alike.  report refuses (exit 2) the flags
its mode would drop: --with-mc with --normality or --expect-only, --pretty or
--format json with --expect-only, --expect-only or --grid with --normality,
--pretty with --format csv, and --expect-only at --nmax < 1 without --grid.
A closed stdout (say, `| head -1`) is no error: the command's own code stands.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .chain import ChainBlueprint, ProbabilityParams, build_graph, sample_blueprint
from .closedform import expected_index, variance_index
from .distribution import Standardization, monte_carlo, normality_test
from .indices import MOMENT_INDICES, compute_indices, incremental_indices
from .metrics import _check_dense_size, bfs_all_pairs, laplacian_resistance, structured_metrics
from .report import (
    csv_text,
    expectation_grid_csv,
    report_csv,
    report_json,
    report_text,
    unexplained_failures,
    verification_table,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ENGINE = 3
EXIT_FORMULA = 4

_FLOAT_RES_TOL = 1e-9


class EngineDisagreement(Exception):
    """Two index engines returned different values for the same chain."""


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; round-trips through JSON.  Its field defaults
    are the command line's: the parser sets no default of its own."""

    command: str
    n: int | None = None
    nmax: int = 8
    p1: str = "1/2"
    seed: int = 0
    samples: int = 10000
    workers: int = 1
    fmt: str | None = None  # None: the mode's own format, CSV for --expect-only, else JSON
    out: str | None = None
    pretty: bool = False
    edges_only: bool = False
    blueprint: str | None = None
    verify_cap: int = 24  # blueprints at most this long run through all engines
    grid: str | None = None
    expect_only: bool = False
    normality: bool = False
    with_mc: bool = False
    standardization: str = "closed-form"

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="pentachain",
        description="random pentagonal chains: generation, indices, moment reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a chain and print its edge list")
    gen.add_argument("--n", type=int, required=True, help="number of pentagons")
    gen.add_argument("--p1", help="mode-1 probability ('1/2' or '0.5')")
    gen.add_argument("--seed", type=int)
    gen.add_argument(
        "--edges-only", action="store_true", help="omit the blueprint header line"
    )
    gen.add_argument("--out", help="write here instead of stdout")

    idx = sub.add_parser("indices", help="compute all six indices of a blueprint")
    idx.add_argument("--blueprint", help="blueprint JSON path (default: stdin)")
    idx.add_argument(
        "--verify-cap",
        type=int,
        help="cross-check against the matrix engines when n is at most this",
    )
    idx.add_argument("--out")

    rep = sub.add_parser("report", help="verify closed-form moments, export grids")
    rep.add_argument("--nmax", type=int, help="verify n = 1..nmax")
    rep.add_argument("--n", type=int, help="chain length for --normality")
    rep.add_argument("--p1", help="value, or comma list for grids")
    rep.add_argument("--grid", help="n range for --expect-only, e.g. n=1..50")
    rep.add_argument(
        "--expect-only",
        action="store_true",
        help="emit the closed-form CSV surface, no oracle",
    )
    rep.add_argument(
        "--normality", action="store_true", help="KS normality rows instead"
    )
    rep.add_argument("--samples", type=int)
    rep.add_argument("--seed", type=int)
    rep.add_argument("--workers", type=int)
    rep.add_argument(
        "--with-mc",
        action="store_true",
        help="append seeded Monte Carlo estimates to the verification table",
    )
    rep.add_argument(
        "--standardization",
        choices=[s.value for s in Standardization],
    )
    rep.add_argument("--format", dest="fmt", choices=["json", "csv"])
    rep.add_argument("--pretty", action="store_true", help="human table rendering")
    rep.add_argument("--out")
    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    return RunConfig(**{k: v for k, v in vars(ns).items() if v is not None})


def _parse_p1_list(text: str) -> list[ProbabilityParams]:
    return [ProbabilityParams.parse(part.strip()) for part in text.split(",")]


def _parse_grid(text: str) -> range:
    body = text.strip()
    if body.startswith("n="):
        body = body[2:]
    lo, sep, hi = body.partition("..")
    if not sep:
        raise ValueError(f"grid must look like n=1..50, got {text!r}")
    start, stop = int(lo), int(hi)
    if start < 1 or stop < start:
        raise ValueError(f"grid bounds must satisfy 1 <= lo <= hi, got {text!r}")
    return range(start, stop + 1)


def cmd_generate(config: RunConfig) -> tuple[str, int]:
    """Sample one blueprint and render it as a commented edge list."""
    if config.n is None or config.n < 1:
        raise ValueError(f"n must be >= 1, got {config.n}")
    params = ProbabilityParams.parse(config.p1)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    blueprint = sample_blueprint(config.n, params, rng)
    body = build_graph(blueprint).edge_list_text()
    if config.edges_only:
        return body, EXIT_OK
    return f"# {blueprint.to_json()}\n{body}", EXIT_OK


def _read_blueprint(config: RunConfig) -> ChainBlueprint:
    if config.blueprint:
        with open(config.blueprint, encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        return ChainBlueprint.from_json(text)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"invalid blueprint JSON: {exc}") from exc


def verify_engines(blueprint: ChainBlueprint):
    """Run every engine on one chain and demand agreement.

    BFS and structured distances must be identical, Laplacian and structured
    resistances within 1e-9 entrywise relative to the largest resistance
    (the float solve's error grows with the chain), matrix and O(n) engine
    index values exactly equal.  Raises EngineDisagreement otherwise;
    returns the bundle.  A chain past the dense engines' cap is refused with
    ValueError before any engine runs.
    """
    _check_dense_size(5 * blueprint.n)
    graph = build_graph(blueprint)
    dist_struct, res_struct = structured_metrics(blueprint)
    dist_bfs = bfs_all_pairs(graph)
    if not np.array_equal(dist_bfs.data, dist_struct.data):
        raise EngineDisagreement(
            f"BFS and structured distance matrices differ for {blueprint.to_json()}"
        )
    res_lap = laplacian_resistance(graph)
    structured = res_struct.as_float()
    gap = float(np.abs(res_lap.as_float() - structured).max())
    if gap > _FLOAT_RES_TOL * max(1.0, float(structured.max())):
        raise EngineDisagreement(
            f"Laplacian and structured resistances differ by {gap:g} "
            f"for {blueprint.to_json()}"
        )
    from_matrices = compute_indices(graph, dist_struct, res_struct)
    fast = incremental_indices(blueprint)
    if from_matrices != fast:
        raise EngineDisagreement(
            "matrix and recurrence engines disagree for "
            f"{blueprint.to_json()}\n  matrix:     {from_matrices.to_json()}"
            f"\n  recurrence: {fast.to_json()}"
        )
    return fast


def cmd_indices(config: RunConfig) -> tuple[str, int]:
    """Index bundle of one blueprint, engine-verified for short chains."""
    blueprint = _read_blueprint(config)
    if blueprint.n <= config.verify_cap:
        bundle = verify_engines(blueprint)
    else:
        bundle = incremental_indices(blueprint)
    return bundle.to_json(), EXIT_OK


def _mc_section(config: RunConfig, n_values, p_list) -> list[dict]:
    rows = []
    for params in p_list:
        for n in n_values:
            stats = monte_carlo(
                MOMENT_INDICES,
                n,
                params.p1,
                config.samples,
                config.seed,
                workers=config.workers,
            )
            for kind in MOMENT_INDICES:
                stat = stats[kind]
                mean = float(expected_index(kind, n, params.p1))
                var = float(variance_index(kind, n, params.p1))
                se = (var / config.samples) ** 0.5
                abs_z = abs(stat.mean - mean) / se if se else 0.0
                rows.append(
                    {
                        "index": kind.value,
                        "n": n,
                        "p1": params.as_float(),
                        "sample_count": stat.count,
                        "sample_mean": stat.mean,
                        "sample_variance": stat.variance,
                        "abs_z": abs_z,
                        "within_4se": abs_z < 4 if se else stat.mean == mean,
                        "seed": config.seed,
                    }
                )
    return rows


_NORMALITY_COLUMNS = (
    "index", "n", "p1", "sample_count", "ks_statistic", "threshold_0.01", "threshold_0.05",
    "passes_0.01",
)
_MC_COLUMNS = (
    "index", "n", "p1", "sample_count", "sample_mean", "sample_variance", "abs_z", "within_4se",
)


def _normality_text(config: RunConfig) -> str:
    """The KS rows of the moment indices at one (n, p1): pretty, CSV or JSON.
    Each index standardizes to the standardized T2, so one statistic serves all."""
    if config.n is None:
        raise ValueError("--normality needs --n")
    params = ProbabilityParams.parse(config.p1)
    standardization = Standardization(config.standardization)
    result = normality_test(
        MOMENT_INDICES[0], config.n, params.p1, config.samples, config.seed, standardization
    )
    rows = [
        json.loads(dataclasses.replace(result, index=kind).to_json())
        | {"passes_0.01": result.passes(0.01)}
        for kind in MOMENT_INDICES
    ]
    if config.pretty:
        return "".join(
            f"{row['index']:<10} n={row['n']:<5} KS={row['ks_statistic']:.5f} "
            f"{'below' if row['passes_0.01'] else 'ABOVE'} "
            f"threshold {row['thresholds']['0.01']:.5f}\n"
            for row in rows
        )
    if config.fmt == "csv":
        records = [
            row | {f"threshold_{alpha}": t for alpha, t in row["thresholds"].items()}
            for row in rows
        ]
        return csv_text(_NORMALITY_COLUMNS, records)
    return json.dumps({"normality": rows}, indent=2)


def cmd_report(config: RunConfig) -> tuple[str, int]:
    """Verification table, CSV surface, or normality rows, per flags."""
    if config.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {config.workers}")
    if config.with_mc and (config.normality or config.expect_only):
        raise ValueError("--with-mc applies to the verification table only")
    if config.expect_only and (config.pretty or config.fmt == "json"):
        raise ValueError("--expect-only prints CSV only: no --pretty or --format json")
    if config.normality and (config.expect_only or config.grid):
        raise ValueError("--normality prints KS rows: no --expect-only or --grid")
    if config.pretty and config.fmt == "csv":
        raise ValueError("--pretty and --format csv are two renderings: pick one")
    if config.normality:
        return _normality_text(config), EXIT_OK
    if config.nmax < 1 and not (config.expect_only and config.grid):
        raise ValueError(f"nmax must be >= 1, got {config.nmax}")
    if config.expect_only:
        n_values = _parse_grid(config.grid) if config.grid else range(1, config.nmax + 1)
        p_list = _parse_p1_list(config.p1)
        return expectation_grid_csv(n_values, [p.p1 for p in p_list]), EXIT_OK
    p_list = _parse_p1_list(config.p1)
    reports = []
    for params in p_list:
        reports.extend(verification_table(config.nmax, params.p1))
    code = EXIT_FORMULA if unexplained_failures(reports) else EXIT_OK
    mc = _mc_section(config, range(1, config.nmax + 1), p_list) if config.with_mc else None
    if config.pretty:
        text = report_text(reports)
        if mc is not None:
            text += "monte carlo:\n" + "".join(
                f"  {row['index']:<10} n={row['n']:<3} mean={row['sample_mean']:.6g} "
                f"var={row['sample_variance']:.6g} |z|={row['abs_z']:.3f}\n"
                for row in mc
            )
    elif config.fmt == "csv":
        text = report_csv(reports)
        if mc is not None:
            text += "\n" + csv_text(_MC_COLUMNS, mc)
    else:
        text = report_json(reports, mc)
    return text, code


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        try:
            print(text, end="" if text.endswith("\n") else "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader wants no more: point fd 1, if there is one, at
            # os.devnull, so that the flush at interpreter exit meets no closed pipe
            with contextlib.suppress(OSError), open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    config = _config_from(ns)
    commands = {"generate": cmd_generate, "indices": cmd_indices, "report": cmd_report}
    try:
        text, code = commands[config.command](config)
        _emit(text, config.out)
    except EngineDisagreement as exc:
        print(f"engine disagreement: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
