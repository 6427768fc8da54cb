"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from pentachain import chain  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed_end_to_end(stdout: str) -> list[str]:
    """Metric names of the readable end-to-end block."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("end-to-end")) + 1
    names = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        names.append(line.split()[0])
    return names


def test_workload_names_agree():
    # BENCHMARK.json declares a subset; every workload can be run by name
    declared = [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert set(declared) <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= worker.MIN_OPS
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert printed_end_to_end(proc.stdout) == END_TO_END + ["failed_ops_frac"]


def test_traced_run_prints_every_layer_metric_and_the_same_end_to_end_names():
    untraced = bench("--workload", "engine_check", "--seed", "4", "--seconds", "0", "--trace", "0", "--tiny")
    traced = bench("--workload", "engine_check", "--seed", "4", "--seconds", "0", "--trace", "1", "--tiny")
    result = result_of(traced)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == PER_LAYER
    assert printed_end_to_end(traced.stdout) == printed_end_to_end(untraced.stdout)


def _corrupt_bundle_json(text: str) -> str:
    data = json.loads(text)
    data["wiener"] = "0/1"
    return json.dumps(data)


CORRUPT = {
    "long_chain": lambda r: (r[0], dataclasses.replace(r[1], wiener=r[1].wiener + 1)),
    "moment_verify": lambda r: dataclasses.replace(
        r, rows=(dataclasses.replace(r.rows[0], variance=r.rows[0].variance + 1),) + r.rows[1:]
    ),
    "mc_normality": lambda r: (
        {k: dataclasses.replace(s, mean=s.mean + 1e6) for k, s in r[0].items()},
        r[1],
    ),
    "engine_check": lambda r: (r[0], _corrupt_bundle_json(r[1])),
}


def _raise(x):
    raise RuntimeError("injected")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_or_raising_operation_counts_as_failed(name, tmp_path):
    wl = workloads.make(name, 5, str(tmp_path), tiny=True)
    assert worker.closed_loop(wl, ops=wl.period).failures == []
    honest = wl.run
    wl.run = lambda x: CORRUPT[name](honest(x))
    corrupted = worker.closed_loop(wl, ops=wl.period)
    assert len(corrupted.failures) == len(corrupted.latencies) == wl.period
    assert all("CheckFailed" in message for message in corrupted.failures)
    wl.run = _raise
    assert len(worker.closed_loop(wl, ops=2).failures) == 2


def test_traced_pass_restores_the_layer_functions(tmp_path):
    wl = workloads.make("long_chain", 6, str(tmp_path), tiny=True)
    original = chain.sample_blueprint
    tracer = Tracer()
    with tracer.patched(wl.patches):
        loop = worker.closed_loop(wl, ops=3, tracer=tracer)
    assert chain.sample_blueprint is original
    assert loop.failures == []
    assert len(tracer.durations("chain.sample_blueprint")) == 3
    op_self = tracer.self_times("op")
    assert all(0 <= t <= d for t, d in zip(op_self, tracer.durations("op")))


def test_directory_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
