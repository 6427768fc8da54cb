"""Command-line contract: formats, determinism, exit codes 0/2/3/4."""

import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import pentachain.cli as cli
import pentachain.report as report_mod
from pentachain import (
    AttachmentMode,
    ChainBlueprint,
    IndexBundle,
    MetricMatrix,
    RunConfig,
    all_mode_blueprint,
    main,
)


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
    ],
)
def test_bad_input_exits_2_with_one_line(argv, stdin, monkeypatch, capsys):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
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
            "9c38c074e8f95618221df0e3fcac490daa667210",
        ),
    ],
)
def test_report_stdout_is_golden(argv, sha1, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "pentachain", "generate", "--n", "3", "--edges-only"],
        capture_output=True,
        text=True,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 17


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


def test_run_config_round_trip():
    config = RunConfig(command="report", nmax=6, p1="1/3", with_mc=True)
    assert RunConfig.from_json(config.to_json()) == config


def test_parse_grid():
    assert cli._parse_grid("n=1..50") == range(1, 51)
    assert cli._parse_grid("n=4..4") == range(4, 5)
    for bad in ("m=1..5", "n=5..1", "n=0..3", "n=1-5"):
        with pytest.raises(ValueError):
            cli._parse_grid(bad)
