"""Mutation gate: every listed one-line change to src/ must fail tier-1.

Each mutant replaces one line of a module under src/pentachain with a wrong
variant: a constant, a boundary, a ddof, a dropped term.  A line that occurs
twice is named together with its next line.  The script copies
the repository to a temporary directory once, runs the tier-1 suite there
unmutated (it must pass), then applies each mutant in turn and runs, with
-x -q, the mutated module's own test file (tests/test_<module>.py) and, only
if that passes, the whole suite: most mutants fail their own file within
seconds, and the rest still face every test.  A mutant is killed when a test
fails.  The script exits 1 when a mutant survives or no longer matches its
line exactly once, and 0 when every mutant is killed.

    python3 tools/mutants.py    # about 2 minutes on a 2-CPU host

Mutation testing: DeMillo, Lipton and Sayward, "Hints on test data
selection", 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, module under src/pentachain, the line as it stands, the mutated line)
MUTANTS = [
    (
        "ks-critical-constant",
        "distribution.py",
        "_KS_CRITICAL = {0.01: 1.628, 0.05: 1.358}",
        "_KS_CRITICAL = {0.01: 1.63, 0.05: 1.358}",
    ),
    (
        "stream-stats-int64-bound",
        "distribution.py",
        "    dtype = np.int64 if _CHUNK * top * top < 2**63 else object",
        "    dtype = np.int64 if _CHUNK * top * top < 2**64 else object",
    ),
    (
        "laplacian-tolerance",
        "cli.py",
        "_FLOAT_RES_TOL = 1e-9",
        "_FLOAT_RES_TOL = 1e-3",
    ),
    (
        "oracle-nmax",
        "report.py",
        "_ORACLE_NMAX = 22",
        "_ORACLE_NMAX = 21",
    ),
    (
        "sample-stats-variance-ddof",
        "distribution.py",
        "        return self.m2 / (self.count - 1)",
        "        return self.m2 / self.count",
    ),
    (
        "reference-coefficient",
        "closedform.py",
        "    IndexKind.GUTMAN: {3: (F(72), F(-24)), 2: (F(-12), F(72)), 1: (F(1), F(-48)), 0: (F(-1), F(0))},",
        "    IndexKind.GUTMAN: {3: (F(72), F(-23)), 2: (F(-12), F(72)), 1: (F(1), F(-48)), 0: (F(-1), F(0))},",
    ),
    (
        "discrepancy-evidence",
        "closedform.py",
        '                "is p-free there (1242)"',
        '                "is p-free there (1243)"',
    ),
    (
        "verify-cap-boundary",
        "cli.py",
        "    if blueprint.n <= config.verify_cap:",
        "    if blueprint.n < config.verify_cap:",
    ),
    (
        "normality-n-refusal",
        "distribution.py",
        "    if n <= 2 or not 0.0 < p1f < 1.0:",
        "    if n <= 1 or not 0.0 < p1f < 1.0:",
    ),
    (
        "streams",
        "distribution.py",
        "_STREAMS = 64",
        "_STREAMS = 32",
    ),
    (
        "ks-lower-side",
        "distribution.py",
        "    return float(np.maximum(upper - cdf, cdf - (upper - 1.0 / m)).max())",
        "    return float((upper - cdf).max())",
    ),
    (
        "oracle-match-tolerance",
        "report.py",
        "_REL_TOL_DEN = 10**9",
        "_REL_TOL_DEN = 10**6",
    ),
    (
        "sample-standardization-ddof",
        "distribution.py",
        "        scale = float(values.std(ddof=1))",
        "        scale = float(values.std(ddof=0))",
    ),
    (
        "mc-within-4se",
        "cli.py",
        '                        "within_4se": abs_z < 4 if se else stat.mean == mean,',
        '                        "within_4se": abs_z < 5 if se else stat.mean == mean,',
    ),
    (
        "dense-cap-boundary",
        "metrics.py",
        "    if V > DEFAULT_DENSE_CAP:",
        "    if V >= DEFAULT_DENSE_CAP:",
    ),
    (
        "within-tolerance-boundary",
        "report.py",
        "    return gap_num * den * _REL_TOL_DEN <= gap_den * scale",
        "    return gap_num * den * _REL_TOL_DEN < gap_den * scale",
    ),
    (
        # the test line occurs twice in report.py; its next line picks the one
        # in triggered_discrepancies
        "triggered-discrepancies-test",
        "report.py",
        "            if row.expected_reference_match is False:\n"
        "                for entry in discrepancies_for(row.index):",
        "            if row.expected_reference_match is not False:\n"
        "                for entry in discrepancies_for(row.index):",
    ),
    (
        "pretty-empty-oracle-cell",
        "report.py",
        """    return f"{float('nan') if value is None else float(value):>16.8g}\"""",
        """    return f"{float('nan') if value is not None else float(value):>16.8g}\"""",
    ),
    (
        "normality-passes-boundary",
        "distribution.py",
        "        return self.ks_statistic < self.threshold(alpha)",
        "        return self.ks_statistic <= self.threshold(alpha)",
    ),
    (
        "draw-uniforms-cap",
        "distribution.py",
        "    rows = min(_CHUNK, max(1, _DRAW_UNIFORMS // steps)) if steps else _CHUNK",
        "    rows = _CHUNK",
    ),
    (
        "pool-bound",
        "distribution.py",
        "    workers = min(workers, len(tasks))",
        "    workers = workers",
    ),
    (
        "expect-only-nmax-refusal",
        "cli.py",
        "    if config.nmax < 1 and not (config.expect_only and config.grid):",
        "    if config.nmax < 1 and not config.expect_only:",
    ),
    (
        "bridge-partner-one-side",
        "chain.py",
        "    table[entry, 2] = out",
        "    table[entry, 2] = entry",
    ),
    (
        "laplacian-pad-mask",
        "metrics.py",
        "    shifted[own, table] -= table != own",
        "    shifted[own, table] -= 1.0",
    ),
]


def run_tier1(copy: Path, *paths: str) -> int:
    """The tier-1 suite on the copy, or only the given test files, stopping
    at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", *paths,
    ]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="pentachain-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        for part in ("src", "tests", "demos", "pyproject.toml"):
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / part)
        code = run_tier1(copy)
        if code != 0:
            print(f"the unmutated suite fails (pytest exit {code}); no mutant can be judged")
            return 1
        bad = []
        for name, module, line, mutated in MUTANTS:
            path = copy / "src" / "pentachain" / module
            text = path.read_text()
            found = text.count(line + "\n")
            if found != 1:
                print(f"STALE     {name}: the line occurs {found} times in {module}")
                bad.append(name)
                continue
            path.write_text(text.replace(line + "\n", mutated + "\n"))
            start = time.perf_counter()
            try:
                code = run_tier1(copy, f"tests/test_{module}")
                if code != 1:
                    code = run_tier1(copy)
            finally:
                path.write_text(text)
            seconds = time.perf_counter() - start
            # pytest exits 1 when a test failed; other codes mean it did not run
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR({code})")
            print(f"{verdict:<9} {name} ({module}, {seconds:.1f} s)", flush=True)
            if code != 1:
                bad.append(name)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
