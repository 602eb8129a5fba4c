import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # The benchmark's report checks run against live CLI output; a package
    # change that breaks them fails here, not only in a benchmark run.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "self-test passed" in res.stdout


def test_tracer_sees_the_public_calls_under_bounds_and_scan(monkeypatch):
    # The bounds report and a scan point reach their analyses through the
    # public functions, so the benchmark's per-layer tracer times each one
    # and reads the restart counts from the results they return.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    import qbcommit.cli  # noqa: F401  (the tracer instruments every layer)
    from qbcommit import bounds
    from qbcommit.families import FAMILY_REGISTRY, random_protocol

    tracer = Tracer()
    tracer.install()
    try:
        bounds.bounds_report(random_protocol(3, 3, 3, seed=0), minimize=True)
        bounds.epsilon_delta_scan(FAMILY_REGISTRY["decoy"], [1.0])
    finally:
        tracer.uninstall()
    per_name = tracer.summary()[0]
    for name in (
        "bounds.check_bounds",
        "bounds.minimize_kraus_gap",
        "binding.minimax_cheat",
        "concealment.analyze_concealment",
    ):
        assert per_name[name][0] > 0, name
    for layer in ("bounds", "binding"):
        assert tracer.counts[f"{layer}.restarts"] > 0, layer


def test_every_benchmark_argv_parses(monkeypatch, tmp_path):
    # Every job the benchmark runs, warm-ups included, is a CLI argv list; a
    # change that drops or renames a flag one of them passes fails here
    # rather than in a benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    from qbcommit.cli import build_parser

    parser = build_parser()
    argvs = []
    for name, build in WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        inputs = build(ROOT, workdir, 951)
        argvs += [job.argv for job in [*inputs.jobs, inputs.warmup]]
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"the CLI rejects benchmark argv {argv}") from None
    assert len(argvs) > len(WORKLOADS)
