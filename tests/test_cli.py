import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qbcommit.binding
import qbcommit.bounds
import qbcommit.concealment
import qbcommit.cli as cli
from qbcommit import linalg
from qbcommit.bounds import GAP_STEPS
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


def test_cb_restarts_help_says_it_is_ignored(capsys):
    with pytest.raises(SystemExit):
        cli.main(["scan", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--cb-restarts CB_RESTARTS ignored: the norm search has no restarts" in help_text


@pytest.mark.parametrize("command", ["conceal", "bounds"])
def test_norm_search_commands_take_no_restarts(command, dephasing_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, dephasing_file, "--restarts", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --restarts 4" in capsys.readouterr().err


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
    code = cli.main(["conceal", phase_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "cb_lower: 2.0" in out
    assert "cb_upper: 2.0" in out
    assert "bob_cheat_upper: 1.0" in out


def test_conceal_structured_output(phase_file, capsys):
    code = cli.main(["conceal", phase_file, "--format", "structured"])
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
def test_conceal_output_does_not_depend_on_the_seed(path, capsys):
    # The norm search runs once, from the deterministic entangled start, so
    # --seed changes no byte of the report.
    outputs = []
    for seed in ("0", "7"):
        assert cli.main(["conceal", str(path), "--format", "structured", "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["solver_trace"]["extra_starts"] == 1
    assert len(report["solver_trace"]["values"]) - report["solver_trace"]["extra_starts"] == 0
    assert report["cb_upper"] - report["cb_lower"] <= CERTIFIED_WIDTH
    assert set(report["upper_routes"]) == {"channel_pair_cap", "witness_dual"}


def test_scan_ignores_cb_restarts(capsys):
    config = str(Path(__file__).resolve().parents[1] / "protocols" / "decoy-scan.json")
    outputs = []
    for extra in ([], ["--cb-restarts", "3"]):
        assert cli.main(["scan", config, *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.fixture
def spawned(monkeypatch):
    """Log of ``linalg.spawn_rng`` calls, from an empty seeded-state cache."""
    calls = []
    spawn = linalg.spawn_rng

    def counting(*args):
        calls.append(args)
        return spawn(*args)

    monkeypatch.setattr(linalg, "spawn_rng", counting)
    linalg._seeded_states.cache_clear()
    return calls


def test_decoy_scan_draws_its_seeded_starts_once(spawned, capsys):
    # Every point certifies at the Procrustes start, so each runs one scoring
    # search with the same 8 seeded starts: the points after the first reuse
    # the first point's draw.
    config = str(Path(__file__).resolve().parents[1] / "protocols" / "decoy-scan.json")
    assert cli.main(["scan", config]) == 0
    assert len(spawned) == 8


def test_bind_draws_each_run_of_one_key_once(spawned, tmp_path, capsys):
    # Scoring searches (tags 2) alternate with each outer restart's reduced
    # searches (tags 4, r), so only consecutive searches of one key share a
    # draw: 3 + (2 + 3) + (1 + 2 + 3) generators, the 1 the Haar start of
    # restart 1.
    path = tmp_path / "random.json"
    spec = random_protocol(2, 2, 2, np.random.default_rng([515, 2, 2, 2, 0]))
    write_protocol_file(path, spec)
    budgets = ["--outer-restarts", "2", "--outer-iters", "15", "--inner-restarts", "3"]
    assert cli.main(["bind", str(path), "--seed", "1", *budgets, "--no-swapped"]) == 0
    assert len(spawned) == 14


def test_bounds_report_draws_one_generator_per_sampled_state(spawned, tmp_path, capsys):
    path = tmp_path / "random.json"
    write_protocol_file(path, random_protocol(2, 2, 2, np.random.default_rng([515, 2, 2, 2, 0])))
    assert cli.main(["bounds", str(path), "--minimize"]) == 0
    assert len(spawned) == 10


def test_conceal_output_file(phase_file, tmp_path, capsys):
    dest = tmp_path / "report.txt"
    code = cli.main(["conceal", phase_file, "--output", str(dest)])
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


def test_bind_rescores_a_cheat_its_certificate_undercuts(tmp_path, capsys):
    # Start 0's inner search misses a state that restart 0's certificate
    # holds; rescored from the scored worst states, the bracket closes.
    path = tmp_path / "r222.json"
    write_protocol_file(path, random_protocol(2, 2, 2, np.random.default_rng([515, 2, 2, 2, 2])))
    argv = ["bind", str(path), "--outer-restarts", "2", "--outer-iters", "15", "--inner-restarts", "3"]
    assert cli.main([*argv, "--no-swapped", "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert 0.0 <= data["binding_upper"] - data["minimax_estimate"] <= CERTIFIED_WIDTH


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
        "qbcommit.cli.main(['bounds', sys.argv[1], '--minimize'])\n"
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


def test_bounds_minimize_prints_the_gap_trace(tmp_path, capsys):
    # The text report names the Newton loop's step count and its stop.
    path = tmp_path / "random.json"
    write_protocol_file(path, random_protocol(3, 3, 3, seed=0))
    assert cli.main(["bounds", str(path), "--states", "2", "--minimize"]) == 0
    out = capsys.readouterr().out
    block = out[out.index("minimized_gap_trace:\n") :]
    steps = int(block.split("  iterations: [")[1].split("]")[0])
    assert 1 < steps < GAP_STEPS
    assert f"  notes: [certified at step {steps}: value - lower " in block


def test_bounds_minimize_reports_one_gap_per_unitary(tmp_path, capsys):
    path = tmp_path / "random.json"
    write_protocol_file(path, random_protocol(3, 3, 3, seed=0))
    argv = ["bounds", str(path), "--states", "3", "--minimize"]
    assert cli.main([*argv, "--format", "structured"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["minimized"]["kraus_gap"] == data["minimized_gap"]


def test_bounds_minimize_gap_does_not_depend_on_the_seed(tmp_path, capsys):
    # The gap bracket is one deterministic loop; only the sampled states
    # use the seed.
    path = tmp_path / "random.json"
    write_protocol_file(path, random_protocol(3, 3, 3, seed=1))
    gaps = []
    for seed in ("0", "5"):
        argv = ["bounds", str(path), "--states", "2", "--minimize", "--seed", seed]
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


def test_scan_rounds_decoy_params_to_the_builders_count(tmp_path, capsys):
    # Each decoy parameter is rounded (ties to even) by ``decoy_protocol``
    # itself: only the param column tells the two scans apart.
    rows = []
    for params in ([0.4, 1.6, 2.5], [0, 2, 2]):
        path = tmp_path / "scan.json"
        path.write_text(json.dumps({"family": "decoy", "params": params}), encoding="utf-8")
        assert cli.main(["scan", str(path), *SCAN_BUDGET_ARGS]) == 0
        rows.append([line.split(",")[1:] for line in capsys.readouterr().out.splitlines()])
    assert len(rows[0]) == 4
    assert rows[0] == rows[1]


def test_scan_dephasing_family_reads_the_basis_angle(tmp_path, capsys):
    # Equal bases make equal channels, which Alice reopens at will; the Z
    # and X bases sit at norm 1, and Alice passes with 1/4. The brackets
    # hold their closed forms up to round-off.
    path = tmp_path / "scan.json"
    path.write_text(
        json.dumps({"family": "dephasing", "params": [0, np.pi / 2]}), encoding="utf-8"
    )
    code = cli.main(["scan", str(path), *SCAN_BUDGET_ARGS, "--format", "structured"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["label"] == "dephasing-scan" and data["skipped"] == []
    (same, zx) = data["points"]
    assert same["eps_lo"] - 1e-12 <= 0.0 <= same["eps_hi"] + 1e-12
    assert abs(same["minimax"] - 1.0) <= 1e-12
    assert zx["param"] == np.pi / 2
    assert zx["eps_lo"] - 1e-12 <= 1.0 <= zx["eps_hi"] + 1e-12
    assert abs(zx["minimax"] - 0.25) <= 1e-12


GOOD_OPS = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]


def _ops_with_entry(value):
    """``GOOD_OPS`` with the real part of its first entry set to ``value``."""
    return [[[[value, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("scan", [{"family": "decoy", "params": [1]}], "scan config must hold a JSON object"),
        ("scan", {"family": "decoy", "params": [1], "options": [1.0]}, "'options' must be an object"),
        ("scan", {"family": "decoy", "params": [1], "label": 7}, "'label' must be a string"),
        ("validate", {"label": "p", "bit0": [], "bit1": GOOD_OPS}, "bit0: expected a nonempty list"),
        (
            "validate",
            {"label": "p", "bit0": GOOD_OPS, "bit1": GOOD_OPS + [[[[0.0, 0.0], [0.0, 0.0]]]]},
            "bit1: operator 1 has shape (1, 2), expected (2, 2)",
        ),
        *(
            ("validate", {"label": "p", "bit0": _ops_with_entry(entry), "bit1": GOOD_OPS}, message)
            for entry, message in (
                (float("nan"), "bit0[0]: entries must be finite"),
                ("1", "bit0[0]: entries must be JSON numbers"),
                (True, "bit0[0]: entries must be JSON numbers"),
                (10**400, "bit0[0]: entries must be finite"),
            )
        ),
    ],
    ids=[
        "config-not-object", "options-not-object", "label-not-string", "empty-family", "mismatched-shapes",
        "nan-entry", "string-entry", "bool-entry", "huge-int-entry",
    ],
)
def test_malformed_input_exits_two_with_its_message(tmp_path, capsys, command, content, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    code = cli.main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


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


@pytest.mark.parametrize("angle", ['"x"', "null", "true", "Infinity"])
def test_scan_non_number_option_exits_two(tmp_path, capsys, angle):
    # An option value must be a finite JSON number, as a params entry must.
    path = tmp_path / "scan.json"
    config = '{"family": "decoy", "params": [0, 1], "options": {"angle": %s}}' % angle
    path.write_text(config, encoding="utf-8")
    code = cli.main(["scan", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'options' values must be" in captured.err


def test_decoy_counts_too_large_to_build_are_skipped(tmp_path):
    # 2^1e308 is never formed, and the stacks of 40 and 1e308 decoys exceed
    # numpy's largest array; both are skipped, as is 24, whose 16 PiB stack
    # numpy fails to allocate. The scan runs under an address-space cap, so a
    # regression fails fast instead of taking the machine's memory.
    src = str(Path(qbcommit.binding.__file__).resolve().parents[1])
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"family": "decoy", "params": [0, 40, 1e308, 24, 1]}), encoding="utf-8")
    cap = 3 * 2**30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    res = subprocess.run(
        [sys.executable, "-m", "qbcommit.cli", "scan", str(path), "--format", "structured"],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit,
    )
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert [pt["param"] for pt in data["points"]] == [0.0, 1.0]
    reasons = {param: reason.split(":")[0] for param, reason in data["skipped"]}
    assert list(reasons) == [40.0, 1e308, 24.0]
    assert reasons[40.0] == reasons[1e308] == "ValueError"
    assert "MemoryError" in reasons[24.0]


def test_scan_csv_rows_are_the_structured_points(capsys):
    # Columns 1-5 of a row are the repr of its point's fields; columns 6-8
    # are the scan's outer and inner restart budgets and its seed.
    config = str(Path(__file__).resolve().parents[1] / "protocols" / "decoy-scan.json")
    outputs = []
    for fmt in ("csv", "structured"):
        assert cli.main(["scan", config, "--seed", "3", "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    header, *rows = outputs[0].splitlines()
    data = json.loads(outputs[1])
    assert len(rows) == len(data["points"]) == 4
    fields = header.split(",")
    budgets = data["budgets"]
    for row, point in zip(rows, data["points"]):
        assert sorted(point) == sorted(fields[:5])
        tail = [budgets["outer_restarts"], budgets["inner_restarts"], data["seed"]]
        assert row.split(",") == [repr(point[f]) for f in fields[:5]] + [repr(v) for v in tail]
    assert data["seed"] == 3


def test_traces_hold_no_seed_and_bind_reports_its_seed(capsys):
    # Only the binding report carries a seed; no trace holds a seed or a
    # restart count, on any shipped protocol.
    def traces(obj):
        if isinstance(obj, dict):
            for key, value in obj.items():
                if key.endswith("trace") and isinstance(value, dict):
                    yield key, value
                yield from traces(value)
        elif isinstance(obj, list):
            for value in obj:
                yield from traces(value)

    small = ["--outer-restarts", "2", "--outer-iters", "15", "--inner-restarts", "4"]
    for path in SHIPPED_PROTOCOLS:
        reports = {}
        for command, extra in (("conceal", []), ("bounds", ["--minimize"]), ("bind", small)):
            argv = [command, str(path), *extra, "--format", "structured", "--seed", "3"]
            assert cli.main(argv) == 0
            reports[command] = json.loads(capsys.readouterr().out)
        found = [(command, key, value) for command, rep in reports.items() for key, value in traces(rep)]
        assert {(command, key) for command, key, _ in found} >= {
            ("conceal", "solver_trace"),
            ("bounds", "minimized_gap_trace"),
            ("bind", "solver_trace"),
            ("bind", "inner_trace"),
        }
        for command, key, value in found:
            assert not {"seed", "restarts"} & set(value), (path.stem, command, key)
        assert reports["bind"]["seed"] == reports["bind"]["swapped"]["seed"] == 3


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
    monkeypatch.setattr(qbcommit.concealment, "_dual_bound", lambda *args: (-1.0, 0.0))
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
        ("bounds", "--states", "-1"),
        ("bounds", "--states", "0"),
        ("scan", "--outer-restarts", "0"),
        ("scan", "--inner-restarts", "0"),
        ("scan", "--cb-restarts", "-1"),
        ("scan", "--outer-iters", "-1"),
        ("conceal", "--seed", "-1"),
        ("bind", "--seed", "-1"),
        ("bounds", "--seed", "-1"),
        ("scan", "--seed", "-1"),
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
    assert cli.main(["bounds", dephasing_file, "--states", "1"]) == 0
    assert "sampled_payoffs: [" in capsys.readouterr().out


# Each budget's CLI command and option, and the library entry point and
# keyword that take it.
BUDGET_ENTRY_POINTS = {
    "states": ("bounds", "--states", qbcommit.bounds.bounds_report, "n_states"),
    "outer-iters": ("bind", "--outer-iters", qbcommit.binding.minimax_cheat, "outer_iters"),
    "inner-restarts": ("bind", "--inner-restarts", qbcommit.binding.minimax_cheat, "inner_restarts"),
    "outer-restarts": ("bind", "--outer-restarts", qbcommit.binding.minimax_cheat, "outer_restarts"),
}


@pytest.mark.parametrize("budget", list(BUDGET_ENTRY_POINTS))
def test_budget_minimum_is_the_same_in_the_cli_and_the_library(budget, dephasing_file, capsys):
    # The CLI exits 2 on exactly the values the library rejects with a
    # ValueError naming the budget; both accept the rest.
    command, option, entry_point, keyword = BUDGET_ENTRY_POINTS[budget]
    outcomes = []
    for value in (-2, -1, 0, 1):
        try:
            cli_ok = cli.main([command, dephasing_file, option, str(value)]) == 0
        except SystemExit as exc:
            assert exc.code == 2
            cli_ok = False
        try:
            entry_point(dephasing_protocol(), **{keyword: value})
            library_ok = True
        except ValueError as exc:
            assert keyword in str(exc)
            library_ok = False
        outcomes.append((cli_ok, library_ok))
    capsys.readouterr()
    assert all(cli_ok == library_ok for cli_ok, library_ok in outcomes)
    assert outcomes[0] == (False, False) and outcomes[-1] == (True, True)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["validate", "conceal", "bind", "bounds", "scan"])
def test_tol_must_be_finite_and_nonnegative(command, value, dephasing_file, decoy_config, capsys):
    path = decoy_config if command == "scan" else dephasing_file
    with pytest.raises(SystemExit) as exc:
        cli.main([command, path, "--tol", value])
    assert exc.value.code == 2
    assert "argument --tol: must be a finite, nonnegative number" in capsys.readouterr().err


# Each command's library call, and the budget and tolerance keywords that
# its flags set.
FLAG_KEYWORDS = {
    "bind": ("minimax_cheat", {"outer_restarts", "outer_iters", "inner_restarts", "tol"}),
    "conceal": ("analyze_concealment", {"tol"}),
    "bounds": ("bounds_report", {"n_states", "tol"}),
    "scan": ("ScanBudgets", {"outer_restarts", "outer_iters", "inner_restarts", "tol"}),
}


@pytest.mark.parametrize("command", list(FLAG_KEYWORDS))
def test_flagless_commands_leave_the_library_defaults(
    command, dephasing_file, decoy_config, monkeypatch, capsys
):
    # The library holds the only copy of each default: without flags the
    # CLI passes no budget or tolerance, and each given flag is passed on.
    name, keywords = FLAG_KEYWORDS[command]
    calls = []

    def stub(*args, **kwargs):
        calls.append(kwargs)
        raise BracketInversionError("stub")

    monkeypatch.setattr(cli, name, stub)
    path = decoy_config if command == "scan" else dephasing_file
    assert cli.main([command, path]) == 3
    assert cli.main([command, path, "--tol", "0.001"]) == 3
    capsys.readouterr()
    assert not keywords & set(calls[0])
    assert keywords & set(calls[1]) == {"tol"} and calls[1]["tol"] == 0.001


def test_every_scan_option_sets_a_budget_or_the_seed(decoy_config, monkeypatch, capsys):
    # Each scan option, bar the output ones, reaches a ScanBudgets field or
    # epsilon_delta_scan's seed. The one named exception is --cb-restarts,
    # which is parsed and ignored; no other flag may be swallowed that way.
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        action.option_strings[-1]: action.dest
        for action in sub.choices["scan"]._actions
        if action.option_strings and action.dest not in ("help", "format", "output")
    }
    budgets, scans = [], []

    def budgets_stub(**kwargs):
        budgets.append(kwargs)
        return qbcommit.bounds.ScanBudgets(**kwargs)

    def scan_stub(*args, **kwargs):
        scans.append(kwargs)
        raise BracketInversionError("stub")

    monkeypatch.setattr(cli, "ScanBudgets", budgets_stub)
    monkeypatch.setattr(cli, "epsilon_delta_scan", scan_stub)
    argv = [arg for option in options for arg in (option, "1")]
    assert cli.main(["scan", decoy_config, *argv]) == 3
    capsys.readouterr()
    assert set(budgets[0]) <= {field.name for field in dataclasses.fields(qbcommit.bounds.ScanBudgets)}
    reached = set(budgets[0]) | ({"seed"} if scans[0]["seed"] == 1 else set())
    assert set(options.values()) - reached == {"cb_restarts"}


def test_main_builds_its_parser_once_per_process(dephasing_file, monkeypatch, capsys):
    # The first main call builds the parser and the later ones share it;
    # each prints what a freshly built parser makes it print.
    argvs = [
        ["validate", dephasing_file],
        ["conceal", dephasing_file, "--format", "structured"],
        ["bind", dephasing_file, "--no-swapped", "--seed", "2"],
    ]
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    shared = []
    for argv in argvs:
        assert cli.main(argv) == 0
        shared.append(capsys.readouterr().out)
    assert len(built) == 1
    for argv, out in zip(argvs, shared):
        cli._parser.cache_clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out
    assert len(built) == 1 + len(argvs)
