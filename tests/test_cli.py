"""Command-line contract: formats, determinism, exit codes 0/2/3/4."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import pentachain.cli as cli
import pentachain.distribution as distribution
import pentachain.report as report_mod
from pentachain import (
    AttachmentMode,
    ChainBlueprint,
    IndexBundle,
    MetricMatrix,
    ProbabilityParams,
    RunConfig,
    SampleStats,
    all_mode_blueprint,
    main,
)

from helpers import count_calls


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_deterministic(capsys):
    code1, out1, _ = run(["generate", "--n", "5", "--p1", "0.5", "--seed", "7"], capsys)
    code2, out2, _ = run(["generate", "--n", "5", "--p1", "0.5", "--seed", "7"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    header, *edges = out1.splitlines()
    assert header.startswith("# {")
    blueprint = ChainBlueprint.from_json(header[2:])
    assert blueprint.n == 5
    assert len(edges) == 6 * 5 - 1
    assert edges[0] == "0 1"


def test_generate_seed_changes_output(capsys):
    _, out_a, _ = run(["generate", "--n", "12", "--seed", "1"], capsys)
    _, out_b, _ = run(["generate", "--n", "12", "--seed", "2"], capsys)
    assert out_a != out_b


def test_generate_edges_only(capsys):
    code, out, _ = run(["generate", "--n", "3", "--edges-only"], capsys)
    assert code == 0
    assert not out.startswith("#")
    assert len(out.splitlines()) == 17


def test_generate_rejects_nonpositive_n(capsys):
    code, out, err = run(["generate", "--n", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "n must be >= 1" in err


def test_generate_out_file(tmp_path, capsys):
    target = tmp_path / "chain.txt"
    code, out, _ = run(
        ["generate", "--n", "4", "--seed", "3", "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("# {")


def test_indices_from_file(tmp_path, capsys):
    path = tmp_path / "bp.json"
    path.write_text(ChainBlueprint(n=2).to_json())
    code, out, _ = run(["indices", "--blueprint", str(path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["wiener"] == "115/1"
    assert data["gutman"] == "529/1"
    assert data["kf_star"] == "393/1"
    assert data["kf_plus"] == "366/1"


def test_indices_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(ChainBlueprint(n=1).to_json()))
    code, out, _ = run(["indices"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schultz"] == "60/1" and data["kirchhoff"] == "10/1"


def test_indices_rejects_bad_json(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
    code, _, err = run(["indices"], capsys)
    assert code == 2
    assert "invalid blueprint JSON" in err


def test_indices_skips_matrix_check_past_verify_cap(tmp_path, capsys):
    path = tmp_path / "bp.json"
    path.write_text(ChainBlueprint(n=30, choices=(AttachmentMode.MODE1,) * 28).to_json())
    code, out, _ = run(
        ["indices", "--blueprint", str(path), "--verify-cap", "5"], capsys
    )
    assert code == 0
    assert json.loads(out)["n"] == 30


def test_engine_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bp.json"
    path.write_text(ChainBlueprint(n=3, choices=(AttachmentMode.MODE2,)).to_json())

    def corrupted(blueprint):
        good = cli.compute_indices(
            cli.build_graph(blueprint), *cli.structured_metrics(blueprint)
        )
        return IndexBundle(
            n=good.n,
            wiener=good.wiener + 1,
            gutman=good.gutman,
            schultz=good.schultz,
            kirchhoff=good.kirchhoff,
            kf_star=good.kf_star,
            kf_plus=good.kf_plus,
        )

    monkeypatch.setattr(cli, "incremental_indices", corrupted)
    code, out, err = run(["indices", "--blueprint", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert "engine disagreement" in err


def test_laplacian_tolerance_scales_with_resistance():
    # the float solve drifts ~2.5e-9 on resistances of a few hundred ohms
    bundle = cli.verify_engines(all_mode_blueprint(200, AttachmentMode.MODE2))
    assert bundle.n == 200


def test_laplacian_check_catches_one_corrupted_entry(monkeypatch):
    real = cli.laplacian_resistance

    def corrupted(graph):
        res = real(graph)
        data = res.data.copy()
        u, v = np.unravel_index(data.argmax(), data.shape)
        data[u, v] *= 1 + 1e-7
        return MetricMatrix(res.size, res.kind, data, res.denominator)

    monkeypatch.setattr(cli, "laplacian_resistance", corrupted)
    with pytest.raises(cli.EngineDisagreement, match="Laplacian"):
        cli.verify_engines(all_mode_blueprint(100, AttachmentMode.MODE2))


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["generate", "--n", "3", "--p1", "1/0"], None),
        (["report", "--p1", "1/0"], None),
        (["indices"], "[1, 2]"),
        (["indices"], '{"n": 4, "choices": "M1M2"}'),
        (["indices"], '{"n": 1.5}'),
        (["report", "--nmax", "2", "--workers", "0"], None),
        pytest.param(["indices"], "[" * 100_000 + "]" * 100_000, id="argv6-deep-array"),
    ],
)
def test_bad_input_exits_2_with_one_line(argv, stdin, monkeypatch, capsys):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enumeration_cap_variable_leaves_the_report_golden(monkeypatch, capsys):
    # the oracle limit is a constant: no environment setting moves it
    monkeypatch.setenv("PENTACHAIN_ENUM_CAP", "3")
    code, out, _ = run(["report", "--nmax", "12", "--p1", "1/5,1/2,4/5"], capsys)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == "11487d4c451853ce6926ce0ad2783990b555f435"


def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(["generate", "--n", "2", "--out", str(target)], capsys)
    assert code == 2
    assert out == "" and not target.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, sha1",
    [
        (
            ["report", "--nmax", "12", "--p1", "1/5,1/2,4/5"],
            "11487d4c451853ce6926ce0ad2783990b555f435",
        ),
        (
            ["report", "--nmax", "9", "--p1", "0.3", "--format", "csv"],
            "7515111a2feb113fa35096bbc610b3ac741534b0",
        ),
        (
            # rows past the oracle limit, at a rational and a float p1
            ["report", "--nmax", "24", "--p1", "1/3,0.3", "--format", "csv"],
            "6b3d098533929190d4a94193736393bbfe106f59",
        ),
        (
            # every row matches: no discrepancy is triggered
            ["report", "--nmax", "1", "--pretty"],
            "ca5f078d7b8affde94350cf22360abea5b7bd9b8",
        ),
        (
            # the empty oracle cells past the oracle limit print as nan
            ["report", "--nmax", "24", "--p1", "1/3", "--pretty"],
            "34f40c6680bedeb93d0809585d15097e3dbd097c",
        ),
        (
            ["report", "--expect-only", "--grid", "n=1..30", "--p1", "1/3,1/2"],
            "343b21d50cc4a08422a8845d73b0436d6a17f9f6",
        ),
    ],
)
def test_report_stdout_is_golden(argv, sha1, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize(
    "argv, sha1",
    [
        (
            ["report", "--normality", "--n", "100", "--samples", "10000", "--seed", "1"],
            "a0da77b0a962365120edcfec319d7ea77af62b8e",
        ),
        (
            ["report", "--nmax", "3", "--samples", "2000", "--seed", "6", "--with-mc",
             "--format", "csv"],
            "acc9a0b5ccd220c0b9628a15e13fef93dc2a5f0d",
        ),
        (
            ["generate", "--n", "40", "--p1", "0.3", "--seed", "12"],
            "bb236292a2fb87c5bb5108ecfbe86355b7fa4106",
        ),
        (
            ["report", "--nmax", "3", "--samples", "2000", "--seed", "6", "--with-mc"],
            "fe5a1d1cd0c1ab9dbaa9ad5985862bca02b091ef",
        ),
        (
            ["report", "--nmax", "3", "--samples", "2000", "--seed", "6", "--with-mc",
             "--pretty"],
            "99ea233ea6e3f78d62750797f5db93b39bfe9e79",
        ),
        (
            ["report", "--normality", "--n", "30", "--samples", "2000", "--seed", "1",
             "--format", "csv"],
            "0d56e501ef9fcdd6ea7d17a2042d371ff5afc80f",
        ),
        (
            ["report", "--normality", "--n", "30", "--samples", "2000", "--seed", "1",
             "--pretty"],
            "20a971594c28310c0917ee9a19a0b47d6680a4a0",
        ),
    ],
)
def test_seeded_stdout_is_golden(argv, sha1, capsys):
    # seeded sampling bytes: the stream layout, the draws and their mapping
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.fixture
def chain24(tmp_path):
    """A fixed n = 24 chain, the longest that indices cross-checks by default."""
    path = tmp_path / "chain24.json"
    path.write_text(json.dumps({"n": 24, "choices": ["M1", "M2", "M1"] * 7 + ["M1"]}))
    return str(path)


def test_indices_stdout_is_golden(chain24, capsys):
    code, out, _ = run(["indices", "--blueprint", chain24], capsys)
    assert code == 0
    assert out == (
        '{"n": 24, "wiener": "141820/1", "gutman": "793751/1", '
        '"schultz": "671064/1", "kirchhoff": "115980/1", '
        '"kf_star": "650423/1", "kf_plus": "549336/1"}\n'
    )


# the cli names the benchmark's traced pass wraps, one span each
ENGINE_NAMES = (
    "build_graph",
    "bfs_all_pairs",
    "laplacian_resistance",
    "structured_metrics",
    "compute_indices",
    "incremental_indices",
)


@pytest.fixture
def engine_calls(monkeypatch):
    """Count the calls that go through each of ENGINE_NAMES on cli."""
    calls = dict.fromkeys(ENGINE_NAMES, 0)
    for name in ENGINE_NAMES:
        real = getattr(cli, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cli, name, counted)
    return calls


def test_verified_indices_goes_through_each_engine_name_once(chain24, engine_calls, capsys):
    code, out, _ = run(["indices", "--blueprint", chain24], capsys)
    assert code == 0 and json.loads(out)["n"] == 24
    assert engine_calls == dict.fromkeys(ENGINE_NAMES, 1)


def test_over_cap_chain_is_refused_before_any_engine(tmp_path, engine_calls, capsys):
    # 1,001 pentagons are 5,005 vertices, past the dense engines' cap
    path = tmp_path / "bp.json"
    path.write_text(all_mode_blueprint(1001, AttachmentMode.MODE2).to_json())
    code, out, err = run(
        ["indices", "--blueprint", str(path), "--verify-cap", "5000"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == "error: the dense BFS and Laplacian engines are capped at 5000 vertices, got 5005\n"
    assert engine_calls == dict.fromkeys(ENGINE_NAMES, 0)


def test_cached_parser_keeps_no_state_between_calls(chain24, capsys):
    assert main(["report", "--pretty", "--nmax", "2"]) == 0
    assert main(["indices", "--blueprint", chain24]) == 0
    capsys.readouterr()
    assert main(["report", "--nmax", "2"]) == 0
    in_process = capsys.readouterr().out
    assert cli._build_parser() is cli._build_parser()
    fresh = subprocess.run(
        [sys.executable, "-m", "pentachain", "report", "--nmax", "2"],
        capture_output=True,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert fresh.returncode == 0
    assert in_process.encode() == fresh.stdout


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "pentachain", "generate", "--n", "3", "--edges-only"],
        capture_output=True,
        text=True,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 17


def test_optimized_interpreter_prints_the_same_report():
    # the report's checks raise, so `python -O` (no asserts) changes nothing
    argv = ["-m", "pentachain", "report", "--nmax", "8", "--p1", "1/5,1/2"]
    env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)}
    plain = subprocess.run([sys.executable, *argv], capture_output=True, env=env)
    optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=env)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout and optimized.stdout == plain.stdout


def test_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pentachain; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_import_leaves_the_process_pool_out():
    # multiprocessing loads only when monte_carlo runs more than one worker
    code = "import sys, pentachain; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_report_verification_passes(capsys):
    code, out, _ = run(["report", "--nmax", "5", "--p1", "1/2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["unexplained_failures"] == []
    keys = {d["key"] for d in payload["discrepancies"]}
    assert "kf-star-expectation" in keys
    assert "kf-plus-expectation" in keys
    rows = [row for rep in payload["reports"] for row in rep["rows"]]
    assert all(row["expected_verified_match"] for row in rows)
    assert all(row["variance_match"] for row in rows)
    assert any(row["expected_reference_match"] is False for row in rows)


def test_unexplained_failure_exits_4(monkeypatch, capsys):
    # with the registry emptied, the biased reference forms have no cover
    monkeypatch.setattr(report_mod, "discrepancies_for", lambda index: [])
    code, out, _ = run(["report", "--nmax", "4"], capsys)
    assert code == 4
    payload = json.loads(out)
    assert payload["unexplained_failures"]


def test_report_pretty(capsys):
    code, out, _ = run(["report", "--nmax", "3", "--pretty"], capsys)
    assert code == 0
    assert "discrepancies:" in out
    assert "unexplained failures:" not in out


def test_report_csv(capsys):
    code, out, _ = run(["report", "--nmax", "3", "--format", "csv"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("index,n,p1,")
    # 3 lengths x 4 indices
    assert len(out.splitlines()) == 13


def test_report_grid_csv(capsys):
    code, out, _ = run(
        ["report", "--grid", "n=1..5", "--p1", "0.1,0.9", "--expect-only"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "n,p1,E_gut,E_schultz,E_kfstar,E_kfplus,"
        "Var_gut,Var_schultz,Var_kfstar,Var_kfplus"
    )
    assert len(lines) == 11
    code2, out2, _ = run(
        ["report", "--grid", "n=1..5", "--p1", "0.1,0.9", "--expect-only"], capsys
    )
    assert out2 == out


def test_report_grid_validation(capsys):
    code, _, err = run(["report", "--grid", "bogus", "--expect-only"], capsys)
    assert code == 2 and "grid" in err
    code, _, err = run(["report", "--nmax", "0"], capsys)
    assert code == 2 and "nmax" in err


def test_report_normality(capsys):
    argv = ["report", "--normality", "--n", "20", "--samples", "500", "--seed", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    rows = json.loads(out)["normality"]
    assert [row["index"] for row in rows] == ["gutman", "schultz", "kf_star", "kf_plus"]
    for row in rows:
        assert 0 <= row["ks_statistic"] <= 1
        assert row["sample_count"] == 500
        assert "passes_0.01" in row
    code2, out2, _ = run(argv, capsys)
    assert out2 == out


def test_report_normality_csv(capsys):
    code, out, _ = run(
        ["report", "--normality", "--n", "10", "--samples", "200", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("index,n,p1,sample_count,ks_statistic")
    assert len(lines) == 5


def test_report_normality_validation(capsys):
    assert run(["report", "--normality"], capsys)[0] == 2
    assert run(["report", "--normality", "--n", "2"], capsys)[0] == 2
    assert run(["report", "--normality", "--n", "10", "--p1", "0"], capsys)[0] == 2
    assert run(["report", "--normality", "--n", "10", "--samples", "0"], capsys)[0] == 2
    # the sampler owns the --samples refusal, for normality and Monte Carlo alike
    normality = run(["report", "--normality", "--n", "10", "--samples", "0"], capsys)
    with_mc = run(["report", "--nmax", "3", "--with-mc", "--samples", "0"], capsys)
    assert normality == with_mc == (2, "", "error: sample_count must be >= 1\n")
    argv = ["report", "--normality", "--n", "5", "--samples", "1", "--standardization", "sample"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_report_normality_draws_once(monkeypatch, capsys):
    # the four moment indices share one standardized T2: one draw, one row each
    calls = count_calls(monkeypatch, distribution, ("sample_values",))
    argv = ["report", "--normality", "--n", "30", "--samples", "500", "--seed", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 0 and calls == {"sample_values": 1}
    rows = json.loads(out)["normality"]
    assert [row["index"] for row in rows] == ["gutman", "schultz", "kf_star", "kf_plus"]
    assert len({json.dumps({**row, "index": None}) for row in rows}) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--expect-only", "--nmax", "2", "--pretty"], "CSV only"),
        (["--expect-only", "--nmax", "2", "--format", "json"], "CSV only"),
        (["--expect-only", "--nmax", "2", "--format", "json", "--pretty"], "CSV only"),
        (["--expect-only", "--grid", "n=1..3", "--with-mc"], "--with-mc applies"),
        (["--expect-only", "--nmax", "0"], "nmax must be >= 1, got 0"),
        (["--normality", "--n", "10", "--with-mc"], "--with-mc applies"),
    ],
)
def test_report_refuses_flags_its_mode_would_drop(argv, message, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused invocation started work")

    for name in ("expectation_grid_csv", "normality_test", "monte_carlo", "verification_table"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run(["report", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_expect_only_takes_its_own_format(capsys):
    # the grid is CSV: naming that format changes nothing
    argv = ["report", "--expect-only", "--grid", "n=1..3", "--p1", "1/3"]
    assert run(argv, capsys) == run([*argv, "--format", "csv"], capsys)
    assert RunConfig(command="report").fmt is None


def test_report_with_mc(capsys):
    argv = [
        "report", "--nmax", "3", "--samples", "2000", "--seed", "4", "--with-mc",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    mc = payload["monte_carlo"]
    assert len(mc) == 12
    assert all(row["within_4se"] for row in mc)


def test_usage_errors(capsys):
    assert run([], capsys)[0] == 2
    assert run(["frobnicate"], capsys)[0] == 2
    assert run(["generate"], capsys)[0] == 2  # --n is required
    code, _, err = run(["report", "--nmax", "3", "--cap", "5"], capsys)
    assert code == 2 and "unrecognized arguments: --cap 5" in err
    code, out, _ = run(["report", "--help"], capsys)
    assert code == 0 and "--nmax" in out and "--cap" not in out


def test_run_config_round_trip():
    config = RunConfig(command="report", nmax=6, p1="1/3", with_mc=True)
    assert RunConfig.from_json(config.to_json()) == config


def test_run_config_fields_are_the_option_destinations():
    # _config_from passes every parsed option to RunConfig, unfiltered
    (commands,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    dests = {
        action.dest
        for sub in commands.choices.values()
        for action in sub._actions
        if action.dest != "help"
    }
    assert {f.name for f in dataclasses.fields(RunConfig)} == {"command"} | dests


def test_parse_grid():
    assert cli._parse_grid("n=1..50") == range(1, 51)
    assert cli._parse_grid("n=4..4") == range(4, 5)
    for bad in ("m=1..5", "n=5..1", "n=0..3", "n=1-5"):
        with pytest.raises(ValueError):
            cli._parse_grid(bad)


# Fuzzed invocations: every option of every command, with valid and invalid
# values mixed, at sizes small enough for tier-1 (n <= 12, nmax <= 6,
# samples <= 200, one worker).
_P1 = st.sampled_from(
    ["1/2", "1/3", "0.3", "0", "1", "1/0", "3/2", "-0.5", "nan", "x", "", "1/5,4/5", "0.5,2"]
)
_INT = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["", "x", "1.5"]))


def _opt(name, values):
    return st.one_of(st.just([]), values.map(lambda value: [name, value]))


def _flag(name):
    return st.sampled_from([[], [name]])


_ARGV = st.one_of(
    st.tuples(
        st.just(["generate"]),
        _opt("--n", _INT),
        _opt("--p1", _P1),
        _opt("--seed", st.integers(0, 9).map(str)),
        _flag("--edges-only"),
        _opt("--out", st.just(os.path.join(os.devnull, "out"))),
    ),
    st.tuples(st.just(["indices"]), _opt("--verify-cap", _INT)),
    # argparse-valid values only, so that most report runs reach the command
    st.tuples(
        st.just(["report"]),
        _opt("--nmax", st.integers(-1, 6).map(str)),
        _opt("--n", st.integers(-2, 12).map(str)),
        _opt("--p1", _P1),
        _opt("--grid", st.sampled_from(["n=1..5", "n=3..3", "n=0..2", "n=4..2", "bogus"])),
        _flag("--expect-only"),
        _flag("--normality"),
        _flag("--with-mc"),
        _flag("--pretty"),
        _opt("--samples", st.integers(-1, 200).map(str)),
        _opt("--seed", st.integers(0, 9).map(str)),
        _opt("--workers", st.sampled_from(["0", "1"])),
        _opt("--standardization", st.sampled_from(["closed-form", "sample"])),
        _opt("--format", st.sampled_from(["json", "csv"])),
    ),
    st.lists(st.sampled_from(["frobnicate", "--help", "--n", "3", "report"]), max_size=3).map(
        lambda words: (words,)
    ),
).map(lambda parts: [word for part in parts for word in part])

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.sampled_from(["M1", "M2", "n", ""]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "choices", "x"]), inner, max_size=3),
    max_leaves=10,
)
_BLUEPRINT = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.sampled_from(["M1", "M2"]), min_size=max(0, n - 2), max_size=max(0, n - 2)
    ).map(lambda choices: {"n": n, "choices": choices})
)
_STDIN = st.one_of(_BLUEPRINT.map(json.dumps), _JSON.map(json.dumps), st.text(max_size=12))


@given(argv=_ARGV, stdin=_STDIN)
@settings(max_examples=60, deadline=None)
def test_fuzzed_invocations_keep_the_exit_contract(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(sys, "stdin", io.StringIO(stdin)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4)
    assert not caught  # a warning would reach stderr outside the test runner
    if code == 0:
        assert err == ""
    elif err.startswith("usage: "):
        # argparse's own usage line(s) and its error line
        assert code == 2 and ": error: " in err.splitlines()[-1]
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_mc_rows_are_within_4se_strictly_below_4(monkeypatch):
    # closed-form mean 0 and variance equal to the sample count give se = 1,
    # so each row's |z| is its sample mean
    samples = 100
    monkeypatch.setattr(cli, "expected_index", lambda kind, n, p1: 0)
    monkeypatch.setattr(cli, "variance_index", lambda kind, n, p1: samples)
    config = RunConfig(command="report", samples=samples, with_mc=True)
    below = math.nextafter(4.0, 0.0)
    for z, within in ((below, True), (-below, True), (4.0, False), (-4.0, False), (4.5, False)):
        monkeypatch.setattr(
            cli,
            "monte_carlo",
            lambda kinds, n, p1, count, seed, workers: {
                kind: SampleStats(kind, count, z, 0.0, z, z, seed) for kind in kinds
            },
        )
        rows = cli._mc_section(config, [5], [ProbabilityParams(Fraction(1, 2))])
        assert [(row["abs_z"], row["within_4se"]) for row in rows] == [(abs(z), within)] * 4
