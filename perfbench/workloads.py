"""The three benchmark workloads: their input files, job lists and checks.

Every job is one call of the public CLI entry point ``qbcommit.cli.main``
with the run seed (for ``scan-decoy`` and ``bounds-random``, seeds derived
from it) passed as ``--seed``; that seed drives all solver randomness
(random starts, random unitaries, sampled states). The protocol panels are
drawn once from fixed panel seeds. Solve time per random protocol is
heavy-tailed (0.1 s to 12 s across 4x4 draws), so a panel redrawn per run
would make ``wall_ref`` measure the draw rather than the program; with the
panel fixed, runs at different seeds differ only in the solver's own
randomness.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# Closed forms the shipped anchor protocols must reproduce.
CONCEAL_ANCHORS = {
    "identity-vs-phase-flip": {"cb_lower": 2.0, "cb_upper": 2.0},
    "concealing-pair": {"cb_lower": 0.0, "cb_upper": 0.0},
    "dephasing-zx": {"cb_lower": 1.0},
}
# (dim_in, dim_out, cardinality, panel seed), dim_in = dim_out in {3, 4}.
CONCEAL_PANEL = [(d, d, m, s) for d in (3, 4) for m in (2, 3, 4) for s in (0, 1)]
BOUNDS_PANEL = [(3, 3, 3, s) for s in range(6)]
PANEL_SEED = 20020


@dataclass
class Job:
    name: str
    argv: list
    check: object  # (stdout, rc) -> (problems, widths)


@dataclass
class Inputs:
    jobs: list
    warmup: Job
    files: list  # (kind, path) pairs that set-up loads
    traced: list | None = None  # jobs of the traced run, when not all of them


def _copy_shipped(root: Path, workdir: Path, name: str) -> Path:
    dest = workdir / f"{name}.json"
    shutil.copyfile(root / "protocols" / f"{name}.json", dest)
    return dest


def _random_panel(workdir: Path, panel) -> list:
    from qbcommit.families import random_protocol
    from qbcommit.fileio import write_protocol_file

    paths = []
    for din, dout, m, s in panel:
        label = f"random-{din}x{dout}-m{m}-p{s}"
        spec = random_protocol(din, dout, m, np.random.default_rng([PANEL_SEED, din, m, s]), label)
        path = workdir / f"{label}.json"
        write_protocol_file(path, spec)
        paths.append(path)
    return paths


def scan_decoy(root: Path, workdir: Path, seed: int) -> Inputs:
    from qbcommit.fileio import load_scan_config

    config = _copy_shipped(root, workdir, "decoy-scan")
    params = load_scan_config(config).params

    def scan_job(name, path, scanned, job_seed, extra=()):
        return Job(
            name,
            ["scan", str(path), "--seed", str(job_seed), *extra],
            lambda out, rc: checks.check_scan(out, rc, scanned, job_seed),
        )

    # One scan's work (payoff evaluations) moves by several percent with its
    # solver seed, so a run averages two scans at seeds no other run uses.
    jobs = [scan_job(f"decoy-scan-{i}", config, params, 2 * seed + i) for i in (0, 1)]
    warm = workdir / "warmup-scan.json"
    warm.write_text(json.dumps({"family": "decoy", "params": [0], "label": "warmup"}))
    small = ["--cb-restarts", "1", "--outer-restarts", "1", "--outer-iters", "5", "--inner-restarts", "1"]
    warmup = scan_job("warmup-scan", warm, [0.0], seed, small)
    # The traced run makes an untraced and a traced pass; one scan each keeps
    # it within the time a run may take on a slow host.
    return Inputs(jobs=jobs, warmup=warmup, files=[("scan", config)], traced=jobs[:1])


def _conceal_job(path: Path, seed: int, anchor=None) -> Job:
    from qbcommit.fileio import load_protocol

    spec = load_protocol(path)
    return Job(
        path.stem,
        ["conceal", str(path), "--format", "structured", "--seed", str(seed)],
        lambda out, rc: checks.check_conceal(out, rc, spec, anchor),
    )


def conceal_random(root: Path, workdir: Path, seed: int) -> Inputs:
    jobs = [_conceal_job(p, seed) for p in _random_panel(workdir, CONCEAL_PANEL)]
    for name, closed_form in CONCEAL_ANCHORS.items():
        jobs.append(_conceal_job(_copy_shipped(root, workdir, name), seed, closed_form))
    files = [("protocol", Path(j.argv[1])) for j in jobs]
    # The cheapest anchor doubles as the warm-up, so its digest is compared too.
    return Inputs(jobs=jobs, warmup=jobs[-3], files=files)


def bounds_random(root: Path, workdir: Path, seed: int) -> Inputs:
    paths = _random_panel(workdir, BOUNDS_PANEL) + [_copy_shipped(root, workdir, "decoy-k2")]
    # A job's Kraus-gap ascent varies by tens of percent with its solver seed,
    # so the panel runs at two seeds no other run uses, as in scan-decoy.
    jobs = [
        Job(f"{p.stem}-{i}", ["bounds", str(p), "--minimize", "--seed", str(2 * seed + i)], checks.check_bounds)
        for i in (0, 1)
        for p in paths
    ]
    files = [("protocol", p) for p in paths]
    return Inputs(jobs=jobs, warmup=jobs[-1], files=files)


WORKLOADS = {
    "scan-decoy": scan_decoy,
    "conceal-random": conceal_random,
    "bounds-random": bounds_random,
}
