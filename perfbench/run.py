"""Run one workload of the pentachain benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it builds nothing and imports the package from the
`src/` directory next to this one.  Each run starts fresh interpreters:

  1. one set-up, unmeasured, so that byte-code caches exist;
  2. one measured process: it sets up (import + input generation), then runs
     the untraced closed loop for --seconds inside operations; spread evenly
     through the loop it starts worker.SLOTS fresh set-up processes and the
     workload's cold CLI runs, one at a time; `setup_s` is the median of its
     own set-up time and theirs;
  3. with --trace 1 only: three import-timing processes and one traced pass
     over every workload.

It prints the host facts and a readable summary, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The metric names and units come from BENCHMARK.json.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("long_chain", "moment_verify", "mc_normality", "engine_check")
IMPORT_RUNS = 3
# The whole run must end within 180 s.
DEADLINE_S = 170
# Failure messages echoed to stderr; all failures are counted.
SHOWN_FAILURES = 5


class WorkerError(Exception):
    """A benchmark process crashed, timed out or printed no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # The Laplacian engine's inv() is threaded.  One caller runs one operation
    # at a time on matrices of at most a few hundred rows, where a second
    # BLAS thread saves nothing, but its spin-waits take the other CPU and
    # some of its wake-ups stall for milliseconds: one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(role: str, args, env, deadline: float) -> dict:
    argv = [sys.executable, str(WORKER), role, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        argv.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {role} process")
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"the {role} process ran past the deadline") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"the {role} process exited {proc.returncode}")
    return json.loads(lines[-1])


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (q in (0, 1)) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def end_to_end(measured: dict) -> dict[str, float]:
    lat = measured["latencies"]
    return {
        "setup_s": statistics.median(measured["setup_s"]),
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * quantile(lat, 0.9),
        "cli_cold_p50_ms": 1e3 * statistics.median(measured["cli_s"]),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer(imports: list[dict], traced: dict) -> dict:
    out = {name: statistics.median(run[name] for run in imports) for name in imports[0]}
    out.update(traced["layer"])
    return out


def result_line(spec: list[dict], values: dict[str, float], attempted: int, failed: int) -> str:
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise WorkerError(f"metric names differ from BENCHMARK.json: {sorted(set(names) ^ set(values))}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    })


def summary(spec: list[dict], values: dict[str, float]) -> str:
    return "\n".join(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}" for m in spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced input sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pentachain" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} needs src/pentachain and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text(encoding="utf-8"))
    env = child_env()
    try:
        run_worker("setup", args, env, deadline)
        measured = run_worker("measure", args, env, deadline)
        e2e = end_to_end(measured)
        failures = list(measured["failures"])
        attempted = measured["attempted"]
        layer = None
        if args.trace:
            imports = [run_worker("imports", args, env, deadline) for _ in range(IMPORT_RUNS)]
            traced = run_worker("trace", args, env, deadline)
            layer = per_layer(imports, traced)
            failures += traced["failures"]
            attempted += traced["attempted"]
        shown = spec["per_layer"] if args.trace else spec["end_to_end"]
        line = result_line(shown, layer if args.trace else e2e, attempted, len(failures))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in failures[:SHOWN_FAILURES]:
        print(f"FAILED {message}", file=sys.stderr)

    ops = len(measured["latencies"])
    print(json.dumps({"host": measured["host"], "workload": args.workload, "seed": args.seed,
                      "ops": ops, "cli_runs": len(measured["cli_s"]),
                      "setup_runs": len(measured["setup_s"])}))
    print(f"end-to-end ({args.workload}, seed {args.seed}, {ops} ops, one closed-loop caller):")
    print(summary(spec["end_to_end"], e2e))
    print(f"  {'failed_ops_frac':<44} {len(failures) / attempted:>14.6g} fraction "
          f"({len(failures)} of {attempted})")
    if layer is not None:
        print("per-layer (traced pass):")
        print(summary(spec["per_layer"], layer))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
