import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbcommit.binding
import qbcommit.bounds
import qbcommit.concealment
import qbcommit.cli as cli
from qbcommit.errors import BracketInversionError
from qbcommit.families import (
    concealing_pair,
    dephasing_protocol,
    phase_flip_pair,
    random_protocol,
)
from qbcommit.fileio import write_protocol_file
from qbcommit.optimize import CERTIFIED_WIDTH


@pytest.fixture
def phase_file(tmp_path):
    path = tmp_path / "phase.json"
    write_protocol_file(path, phase_flip_pair())
    return str(path)


@pytest.fixture
def dephasing_file(tmp_path):
    path = tmp_path / "dephasing.json"
    write_protocol_file(path, dephasing_protocol())
    return str(path)


def test_validate_accepts_good_protocol(phase_file, capsys):
    code = cli.main(["validate", phase_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "accepted: true" in out


def test_validate_reports_given_tol(dephasing_file, capsys):
    assert cli.main(["validate", dephasing_file, "--tol", "0.5"]) == 0
    assert "tol: 0.5" in capsys.readouterr().out.splitlines()


def test_bounds_help_names_the_inequality_slack(capsys):
    with pytest.raises(SystemExit):
        cli.main(["bounds", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "slack before an inequality counts as violated" in help_text


@pytest.mark.parametrize("command", ["conceal", "bounds", "scan"])
def test_restarts_help_names_the_certified_width(command, capsys):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "run only while the bracket certified at the entangled start" in help_text
    assert "CERTIFIED_WIDTH = 1e-05" in help_text


def test_bounds_minimize_help_names_the_certified_width(capsys):
    with pytest.raises(SystemExit):
        cli.main(["bounds", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert (
        "certified bracket stops within CERTIFIED_WIDTH = 1e-05 or after 200 steps: "
        "the trace bound, then damped Newton on a log-barrier"
    ) in help_text


def test_validate_rejects_incomplete_family(tmp_path, capsys):
    path = tmp_path / "half.json"
    half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    path.write_text(
        json.dumps({"label": "half", "bit0": [half], "bit1": [half]}),
        encoding="utf-8",
    )
    code = cli.main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "accepted: false" in out


@pytest.mark.parametrize("declared", ['"two"', "null", "[2]", "2.7", "true"])
def test_validate_non_integer_declared_dim_exits_two(tmp_path, capsys, declared):
    path = tmp_path / "dims.json"
    write_protocol_file(path, dephasing_protocol())
    text = path.read_text(encoding="utf-8").replace('"dim_in": 2', f'"dim_in": {declared}')
    path.write_text(text, encoding="utf-8")
    code = cli.main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'dim_in' must be an integer" in captured.err


def test_missing_file_exits_two(capsys):
    code = cli.main(["validate", "/nonexistent/p.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_broken_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code = cli.main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("content", [b"\xff", b"[" * 100_000], ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("command", ["validate", "conceal", "scan"])
def test_undecodable_input_exits_two(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert cli.main([command, str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_conceal_text_output(phase_file, capsys):
    code = cli.main(["conceal", phase_file, "--restarts", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cb_lower: 2.0" in out
    assert "cb_upper: 2.0" in out
    assert "bob_cheat_upper: 1.0" in out


def test_conceal_structured_output(phase_file, capsys):
    code = cli.main(["conceal", phase_file, "--restarts", "6", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert abs(data["cb_lower"] - 2.0) < 1e-8
    assert abs(data["cb_upper"] - 2.0) < 1e-12
    assert data["upper_routes"]["channel_pair_cap"] == 2.0
    assert isinstance(data["witness_state"], list)


SHIPPED_PROTOCOLS = sorted(
    path
    for path in (Path(__file__).resolve().parents[1] / "protocols").glob("*.json")
    if path.name != "decoy-scan.json"
)


@pytest.mark.parametrize("path", SHIPPED_PROTOCOLS, ids=[p.stem for p in SHIPPED_PROTOCOLS])
def test_conceal_without_restarts_matches_the_full_search(path, capsys):
    # Every shipped protocol certifies at the deterministic entangled start,
    # so --restarts 0 prints the bracket the default search prints.
    reports = []
    for restarts in ("0", "16"):
        argv = ["conceal", str(path), "--restarts", restarts, "--format", "structured"]
        assert cli.main(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    alone, full = reports
    assert alone["solver_trace"]["extra_starts"] == 1
    assert alone["solver_trace"]["restarts"] == 0
    assert "entangled start certified" in full["solver_trace"]["notes"][0]
    for key in ("cb_lower", "cb_upper", "upper_routes", "witness_state"):
        assert alone[key] == full[key]


def test_conceal_output_file(phase_file, tmp_path, capsys):
    dest = tmp_path / "report.txt"
    code = cli.main(["conceal", phase_file, "--restarts", "4", "--output", str(dest)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ""
    assert "cb_upper: 2.0" in dest.read_text(encoding="utf-8")


def test_bind_concealing_pair(tmp_path, capsys):
    spec, _rel = concealing_pair(seed=31)
    path = tmp_path / "conc.json"
    write_protocol_file(path, spec)
    code = cli.main(
        [
            "bind",
            str(path),
            "--outer-restarts",
            "2",
            "--outer-iters",
            "40",
            "--inner-restarts",
            "4",
            "--no-swapped",
            "--format",
            "structured",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["minimax_estimate"] >= 0.999
    assert data["direction"] == "01"
    assert data["swapped"] is None


def test_bind_reports_certified_upper_bound(dephasing_file, capsys):
    code = cli.main(["bind", dephasing_file, "--format", "structured"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    for rep in (data, data["swapped"]):
        assert set(rep["upper_routes"]) == {"witness_dual", "payoff_cap"}
        assert rep["binding_upper"] == min(rep["upper_routes"].values())
        assert 0.0 <= rep["binding_upper"] - rep["minimax_estimate"] <= CERTIFIED_WIDTH
        assert any("outer ascent skipped" in n for n in rep["solver_trace"]["notes"])


def test_bind_inversion_exits_three(dephasing_file, monkeypatch, capsys):
    monkeypatch.setattr(qbcommit.binding, "_dual_bound", lambda *args: (0.1, np.ones(1)))
    code = cli.main(["bind", dephasing_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "inconsistent bounds" in captured.err


def test_cli_import_leaves_scipy_optimize_out():
    # The package is numpy-only; importing scipy.optimize alone costs a third
    # of a second and about 20 MB.
    src = str(Path(qbcommit.binding.__file__).resolve().parents[1])
    probe = (
        "import sys, qbcommit.cli\n"
        "qbcommit.cli.main(['bind', sys.argv[1], '--no-swapped'])\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by bind'\n"
        "qbcommit.cli.main(['bounds', sys.argv[1], '--minimize', '--restarts', '0'])\n"
        "assert 'scipy' not in sys.modules, 'scipy imported by bounds --minimize'\n"
    )
    protocol = Path(src).parent / "protocols" / "identity.json"
    res = subprocess.run(
        [sys.executable, "-c", probe, str(protocol)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr


def test_bind_swapped_direction_flag(dephasing_file, capsys):
    code = cli.main(
        [
            "bind",
            dephasing_file,
            "--direction",
            "10",
            "--outer-restarts",
            "2",
            "--outer-iters",
            "30",
            "--inner-restarts",
            "4",
            "--no-swapped",
            "--format",
            "structured",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["direction"] == "10"


def test_bounds_command(dephasing_file, capsys):
    code = cli.main(
        [
            "bounds",
            dephasing_file,
            "--restarts",
            "4",
            "--states",
            "5",
            "--format",
            "structured",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["identity"]["violations"] == []
    assert abs(data["identity"]["kraus_gap"] - 1.0) < 1e-12
    assert "minimized" not in data


def test_bounds_minimize_flag(dephasing_file, capsys):
    code = cli.main(
        [
            "bounds",
            dephasing_file,
            "--restarts",
            "4",
            "--states",
            "3",
            "--minimize",
            "--format",
            "structured",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["minimized"]["violations"] == []
    assert data["minimized_gap"] <= data["identity"]["kraus_gap"] + 1e-12
    # The trace bound certifies dephasing's gap at the first step.
    assert 0.0 <= data["minimized_gap"] - data["minimized_gap_lower"] <= CERTIFIED_WIDTH


def test_bounds_minimize_reports_one_gap_per_unitary(tmp_path, capsys):
    path = tmp_path / "random.json"
    write_protocol_file(path, random_protocol(3, 3, 3, seed=0))
    argv = ["bounds", str(path), "--restarts", "2", "--states", "3", "--minimize"]
    assert cli.main([*argv, "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["minimized"]["kraus_gap"] == data["minimized_gap"]


def test_bounds_minimize_gap_does_not_depend_on_the_seed(tmp_path, capsys):
    # The gap bracket is one deterministic loop; only the norm search and
    # the sampled states use the seed.
    path = tmp_path / "random.json"
    write_protocol_file(path, random_protocol(3, 3, 3, seed=1))
    gaps = []
    for seed in ("0", "5"):
        argv = ["bounds", str(path), "--restarts", "2", "--states", "2", "--minimize", "--seed", seed]
        assert cli.main([*argv, "--format", "structured"]) == 0
        data = json.loads(capsys.readouterr().out)
        gaps.append((data["minimized_gap"], data["minimized_gap_lower"]))
    assert gaps[0] == gaps[1]
    assert gaps[0][1] < gaps[0][0]


def test_bounds_minimize_computes_norm_bound_once(dephasing_file, capsys, monkeypatch):
    calls = []
    analyze = qbcommit.bounds.analyze_concealment

    def counting(*args, **kwargs):
        calls.append(1)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(qbcommit.bounds, "analyze_concealment", counting)
    code = cli.main(
        [
            "bounds",
            dephasing_file,
            "--restarts",
            "4",
            "--states",
            "3",
            "--minimize",
            "--format",
            "structured",
        ]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(calls) == 1
    assert data["identity"]["quarter_cb_lower"] == data["minimized"]["quarter_cb_lower"]


@pytest.fixture
def decoy_config(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(
        json.dumps({"family": "decoy", "params": [0, 1], "label": "demo"}),
        encoding="utf-8",
    )
    return str(path)


SCAN_BUDGET_ARGS = [
    "--cb-restarts", "4",
    "--outer-restarts", "2",
    "--outer-iters", "25",
    "--inner-restarts", "4",
]


def test_scan_csv_deterministic(decoy_config, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for dest in (out1, out2):
        code = cli.main(
            ["scan", decoy_config, *SCAN_BUDGET_ARGS, "--output", str(dest)]
        )
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "param,eps_lo,eps_hi,delta,minimax,budget_outer,budget_inner,seed"
    assert len(lines) == 3


def test_scan_structured_output(decoy_config, capsys):
    code = cli.main(
        ["scan", decoy_config, *SCAN_BUDGET_ARGS, "--format", "structured"]
    )
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "demo"
    assert len(data["points"]) == 2
    assert abs(data["points"][1]["eps_hi"] - 0.5) < 1e-9


def test_scan_text_output(decoy_config, capsys):
    code = cli.main(["scan", decoy_config, *SCAN_BUDGET_ARGS, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "label: demo" in out


def test_scan_unknown_family_exits_two(tmp_path, capsys):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"family": "nope", "params": [1]}), encoding="utf-8")
    code = cli.main(["scan", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "known families" in err


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"family": "decoy", "params": [0, 1], "options": {"angel": 1}}', "do not fit"),
        ('{"family": "decoy", "params": [0, NaN]}', "must be finite"),
        ('{"family": "decoy", "params": ["2", true, "1e0"]}', "must be JSON numbers"),
        ('{"family": "decoy", "params": [1' + "0" * 400 + "]}", "must be finite"),
    ],
    ids=["misspelled-option", "nan-param", "string-and-bool-params", "huge-int-param"],
)
@pytest.mark.parametrize("fmt", ["csv", "structured"])
def test_scan_bad_config_exits_two(tmp_path, capsys, config, message, fmt):
    # Neither a header-only CSV nor a bare NaN in the JSON output.
    path = tmp_path / "scan.json"
    path.write_text(config, encoding="utf-8")
    code = cli.main(["scan", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_bracket_inversion_exits_three(phase_file, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise BracketInversionError("lower 3.0 above upper 2.0")

    monkeypatch.setattr(cli, "analyze_concealment", boom)
    code = cli.main(["conceal", phase_file])
    err = capsys.readouterr().err
    assert code == 3
    assert "inconsistent bounds" in err


def test_scan_bracket_inversion_exits_three(decoy_config, monkeypatch, capsys):
    # An upper route below the achieved lower bound must stop the scan with
    # exit 3, as it stops conceal, instead of being clipped away.
    monkeypatch.setattr(
        qbcommit.concealment,
        "_dual_routes",
        lambda spec, witness: {"j_plus": (-1.0, 0.0), "witness_dual": (-1.0, 0.0)},
    )
    code = cli.main(["scan", decoy_config, *SCAN_BUDGET_ARGS])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "inconsistent bounds" in captured.err


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("bind", "--outer-restarts", "0"),
        ("bind", "--inner-restarts", "0"),
        ("bind", "--outer-iters", "-1"),
        ("conceal", "--restarts", "-1"),
        ("bounds", "--restarts", "-1"),
        ("bounds", "--states", "-1"),
        ("bounds", "--states", "0"),
        ("scan", "--outer-restarts", "0"),
        ("scan", "--inner-restarts", "0"),
        ("scan", "--cb-restarts", "-1"),
        ("scan", "--outer-iters", "-1"),
    ],
)
def test_budget_count_below_minimum_exits_two(
    command, option, value, dephasing_file, decoy_config, capsys
):
    path = decoy_config if command == "scan" else dephasing_file
    with pytest.raises(SystemExit) as exc:
        cli.main([command, path, option, value])
    assert exc.value.code == 2
    assert f"argument {option}: must be at least" in capsys.readouterr().err


def test_budget_count_minimums_are_accepted(dephasing_file, capsys):
    assert cli.main(["bounds", dephasing_file, "--restarts", "0", "--states", "1"]) == 0
    assert "sampled_payoffs: [" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["validate", "conceal", "bind", "bounds", "scan"])
def test_tol_must_be_finite_and_nonnegative(command, value, dephasing_file, decoy_config, capsys):
    path = decoy_config if command == "scan" else dephasing_file
    with pytest.raises(SystemExit) as exc:
        cli.main([command, path, "--tol", value])
    assert exc.value.code == 2
    assert "argument --tol: must be a finite, nonnegative number" in capsys.readouterr().err
