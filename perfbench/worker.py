"""One fresh interpreter of the pentachain benchmark, started by run.py.

    python3 perfbench/worker.py ROLE --workload NAME --seed N --seconds S
                                --t0 T [--tiny]

ROLE is one of:

  setup    import the package and build the workload's inputs, then exit;
  measure  the same set-up, then the untraced closed loop; spread evenly
           through the loop, SLOTS times, it starts one fresh `setup`
           process and its share of the workload's cold CLI runs;
  trace    a traced pass over every workload, in a fixed number of ops,
           and an untraced one of the named workload for the overhead;
  imports  time importing numpy, scipy.special and pentachain, in order.

T is the caller's time.monotonic() just before it started this process;
Linux shares that clock between processes, so `setup_s` below counts the
interpreter start too.  The result is one JSON line, printed last.

Only the standard library is imported at module level, so that `imports`
sees a process in which nothing else has loaded numpy yet.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Mirrors the `pentachain` console script.
CLI_ENTRY = "import sys; from pentachain.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60
SETUP_TIMEOUT_S = 30
# p90 needs ten samples beyond it.
MIN_OPS = 100
# The cold runs (a fresh set-up, the CLI command) are spread over this many
# slots, evenly through the measured loop, so that every end-to-end metric
# samples the whole run and no slow spell of the host falls on one alone.
SLOTS = 12


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def closed_loop(wl, seconds: float = 0.0, ops: int | None = None, tracer=None,
                min_ops: int = MIN_OPS, between=None) -> Loop:
    """One caller: each operation starts after the previous one and its check.

    With `ops` the loop runs exactly that many operations.  Otherwise it runs
    whole periods of the input mix until it has done at least `min_ops`
    operations and spent at least `seconds` inside them, and calls
    `between(busy)` after each operation with the time spent in operations so
    far.  An operation that raises, or whose result fails its check, counts
    as failed.
    """
    loop = Loop()
    busy = 0.0
    i = 0
    while True:
        x = wl.input(i)
        error = None
        start = perf_counter()
        try:
            if tracer is None:
                result = wl.run(x)
            else:
                tracer.op = i
                with tracer.span("op"):
                    result = wl.run(x)
        except Exception as exc:  # the op's failure is a measured outcome
            error = exc
        elapsed = perf_counter() - start
        busy += elapsed
        loop.latencies.append(elapsed)
        if error is None:
            try:
                wl.check(x, result)
                if tracer is not None:
                    wl.probe(x, result, tracer)
            except Exception as exc:
                error = exc
        if error is not None:
            loop.failures.append(f"{wl.name} op {i}: {type(error).__name__}: {error}")
        i += 1
        if ops is not None:
            if i >= ops:
                return loop
        elif i % wl.period == 0 and i >= min_ops and busy >= seconds:
            return loop
        elif between is not None:
            between(busy)


@dataclass
class Cold:
    """The cold runs of one measured loop: fresh set-ups and CLI commands."""

    setup_s: list[float] = field(default_factory=list)
    cli_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    slots: int = 0  # slots done
    checked: str | None = None  # the last CLI output that passed its check


def cold_setup(args) -> float:
    """`setup_s` of one fresh `setup` process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "setup", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        argv.append("--tiny")
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup process exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def cold_cli(wl, cold: Cold) -> None:
    """Wall time of the workload's CLI command in a fresh interpreter."""
    argv = [sys.executable, "-c", CLI_ENTRY, *wl.cli_args()]
    start = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        cold.cli_s.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        # seeded output is byte-identical across runs, so one full check
        # covers every run that prints the same bytes
        if proc.stdout != cold.checked:
            wl.check_cli(proc.stdout)
            cold.checked = proc.stdout
    except Exception as exc:
        cold.failures.append(f"{wl.name} cli {' '.join(wl.cli_args())}: {type(exc).__name__}: {exc}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def _import_package():
    import pentachain

    where = Path(pentachain.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"pentachain imported from {where}, not from {SRC}")


def role_imports() -> dict:
    t0 = perf_counter()
    import numpy  # noqa: F401

    t1 = perf_counter()
    import scipy.special  # noqa: F401

    t2 = perf_counter()
    _import_package()
    t3 = perf_counter()
    return {
        "setup.import_numpy_s": t1 - t0,
        "setup.import_scipy_special_s": t2 - t1,
        "setup.import_pentachain_s": t3 - t2,
    }


def role_measure(args, workdir: str) -> dict:
    _import_package()
    import workloads

    wl = workloads.make(args.workload, args.seed, workdir, tiny=args.tiny)
    setup_s = time.monotonic() - args.t0
    if args.role == "setup":
        return {"setup_s": setup_s}
    # one operation first, so that lazy set-up (BLAS threads, caches) is not timed
    warm = closed_loop(wl, ops=1)
    slots = 2 if args.tiny else SLOTS
    cli_runs = 1 if args.tiny else wl.cli_runs
    cold = Cold(setup_s=[setup_s])

    def run_slots(due: int) -> None:
        while cold.slots < due:
            cold.setup_s.append(cold_setup(args))
            # the CLI runs, spread as evenly as their number allows
            for _ in range(sum(1 for r in range(cli_runs) if r * slots // cli_runs == cold.slots)):
                cold_cli(wl, cold)
            cold.slots += 1

    def between(busy: float) -> None:
        # slot k is due once (k + 1/2) / slots of `seconds` is spent in operations
        if args.seconds > 0:
            run_slots(min(slots, math.floor(busy / args.seconds * slots + 0.5)))

    loop = closed_loop(wl, seconds=args.seconds, between=between)
    run_slots(slots)
    return {
        "setup_s": cold.setup_s,
        "latencies": loop.latencies,
        "cli_s": cold.cli_s,
        # ru_maxrss is in KiB on Linux and counts this process alone, not
        # the cold runs it starts
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": 1 + len(loop.latencies) + cli_runs,
        "failures": warm.failures + loop.failures + cold.failures,
        "host": host_facts(),
    }


def role_trace(args, workdir: str) -> dict:
    _import_package()
    import workloads
    from tracing import Tracer

    oracle = workloads.AffineOracle()
    layer = {}
    loops = []
    for name in workloads.WORKLOADS:
        sub = tempfile.mkdtemp(prefix=f"{name}-", dir=workdir)
        wl = workloads.make(name, args.seed, sub, tiny=args.tiny, oracle=oracle)
        loops.append(closed_loop(wl, ops=1))
        if name == args.workload:
            # the same number of operations untraced, right before the traced
            # pass, so that a slow spell of the host skews the ratio less
            plain = closed_loop(wl, ops=wl.trace_ops)
            loops.append(plain)
        tracer = Tracer()
        with tracer.patched(wl.patches):
            traced = closed_loop(wl, ops=wl.trace_ops, tracer=tracer)
        loops.append(traced)
        layer.update(wl.layer_metrics(tracer))
        if name == args.workload:
            layer["trace.overhead_frac"] = sum(traced.latencies) / sum(plain.latencies) - 1
    return {
        "layer": layer,
        "attempted": sum(len(loop.latencies) for loop in loops),
        "failures": [message for loop in loops for message in loop.failures],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=["setup", "measure", "trace", "imports"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.role == "imports":
        result = role_imports()
    else:
        workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
        try:
            if args.role == "trace":
                result = role_trace(args, workdir)
            else:
                result = role_measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
