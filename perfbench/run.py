"""qbcommit benchmark: CLI workloads, end-to-end metrics and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan-decoy --seed 1 --seconds 20 --trace 0

Each job is one in-process call of ``qbcommit.cli.main(argv)``, run one at
a time after one untimed warm-up job, with BLAS and OpenMP pinned to one
thread. ``--trace 0`` repeats the whole job list while the time budget
lasts, at least once, and reports the end-to-end metrics. ``wall_ref`` is
the job list's time in units of a reference kernel timed alongside each job
(see ``pace.py``), each job taken at its median pass; it follows the
program, not the shared host's drifting speed, which raw ``wall_s``
(printed and stored, but not gated) follows as well. ``--trace 1``
runs the list once untraced and once with every public layer function
wrapped (see ``tracer.py``) and reports the per-layer metrics. Every output is checked
and its sha256 compared with earlier outputs of the same job at the same
seed. A result file with the environment goes to ``perfbench/out/results``;
the last stdout line is the JSON summary.
"""

import os

# Before numpy is imported anywhere, by this process or the set-up probes.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from pace import Pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import qbcommit.cli
import scipy.linalg
from qbcommit.fileio import load_protocol, load_scan_config
for item in sys.argv[1:]:
    kind, path = item.split(":", 1)
    (load_scan_config if kind == "scan" else load_protocol)(path)
sys.stdout.write(repr(time.perf_counter() - t0))
"""


def _src_files():
    return sorted((SRC / "qbcommit").rglob("*.py"))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in _src_files():
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in _src_files())


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def measure_setup(files) -> list:
    """Seconds for a fresh interpreter to import the CLI, scipy.linalg and load the inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    args = [f"{kind}:{path}" for kind, path in files]
    samples = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *args],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        samples.append(float(res.stdout))
    return samples


def run_job(job, tracer=None, job_id=-1, paced=False) -> dict:
    """One CLI call; stdout captured, only ``cli.main`` inside the timed region.

    With ``paced`` the host-speed probe runs alongside and the job's cost in
    probe units is returned too; its own time is left out of ``seconds``.
    """
    import qbcommit.cli as cli

    out, err = io.StringIO(), io.StringIO()
    rc = None
    pace = Pace()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.job_id = job_id
        timing = pace.timing() if paced else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with timing:
                rc = cli.main(job.argv)
        except Exception:
            err.write(traceback.format_exc())
        elapsed = pace.seconds() if paced else time.perf_counter() - t0
    text = out.getvalue()
    return {
        "job": job.name,
        "rc": -1 if rc is None else int(rc),
        "seconds": elapsed,
        "cost_ref": pace.cost() if paced else None,
        "stdout": text,
        "stderr": err.getvalue(),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def run_pass(jobs, tracer=None, paced=False) -> list:
    gc.collect()
    return [run_job(job, tracer, i, paced) for i, job in enumerate(jobs)]


class DigestStore:
    """sha256 of each job's stdout, keyed by source digest, workload, seed and job.

    A job whose output differs from an earlier output at the same seed, in
    this run or an earlier one of the same source tree, has failed.
    """

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def verify(self, job: str, sha: str) -> bool:
        key = f"{self.prefix}/{job}"
        return self.known.setdefault(key, sha) == sha

    def save(self) -> None:
        self.path.write_text(json.dumps(self.known, sort_keys=True, indent=0))


def grade(runs, jobs_by_name, store) -> tuple:
    """Check every job run; returns (failed count, widths of the first pass, problems)."""
    failed = 0
    problems = []
    widths = {}
    for run in runs:
        found, w = jobs_by_name[run["job"]].check(run["stdout"], run["rc"])
        if not store.verify(run["job"], run["sha256"]):
            found.append("stdout digest changed at the same seed")
        if found:
            failed += 1
            tail = run["stderr"].strip().splitlines()[-1:] if run["stderr"] else []
            problems.append({"job": run["job"], "problems": found + tail})
        widths.setdefault(run["job"], w)
    flat = [x for w in widths.values() for x in w]
    return failed, flat, problems


def median_over_passes(runs, key: str) -> float:
    """The job list's ``key``, each job taken at its median over the passes."""
    per_job = {}
    for run in runs:
        per_job.setdefault(run["job"], []).append(run[key])
    return sum(statistics.median(v) for v in per_job.values())


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> tuple:
    """Per-layer metrics of one traced pass; also the self-time accounting check."""
    from tracer import LAYERS, UPPER_ROUTES

    per, layer_self, top_level, nspans = tracer.summary()
    c = tracer.counts

    def calls(name):
        return per.get(name, (0, 0.0))[0]

    def secs(name):
        return per.get(name, (0, 0.0))[1]

    def mean_us(name):
        n, t = per.get(name, (0, 0.0))
        return 1e6 * t / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    searches = calls("optimize.search_sphere[binding]")
    evals = calls("binding.objective")
    m = {
        "binding.search_sphere.calls": searches,
        "binding.search_sphere.evals": evals,
        "binding.objective_us": mean_us("binding.objective"),
        "binding.evals_per_search": ratio(evals, searches),
        "binding.searches_per_outer_step": ratio(searches, calls("binding.ascend_objective")),
        "binding.outer_iters_per_restart": ratio(c["binding.restart_iters"], c["binding.restarts"]),
        "binding.min_over_states.s": secs("binding.min_over_states"),
        "binding.engine_self_s": secs("optimize.search_sphere[binding]") - secs("binding.objective"),
        "binding.fd_fallbacks": c["binding.fd_fallbacks"],
        "binding.converged_frac": ratio(c["binding.restarts_converged"], c["binding.restarts"]),
        "concealment.cb_lower_bound.s": secs("concealment.cb_lower_bound"),
        "concealment.search_sphere.evals": calls("concealment.objective"),
        "concealment.objective_us": mean_us("concealment.objective"),
        "concealment.polish.calls": calls("concealment.polish"),
        "concealment.polish_us": mean_us("concealment.polish"),
        "concealment.fd_fallbacks": c["concealment.fd_fallbacks"],
        "concealment.cb_upper_bound.s": secs("concealment.cb_upper_bound"),
    }
    for route in UPPER_ROUTES:
        m[f"concealment.route_wins.{route}"] = c[f"concealment.route_wins.{route}"]
    m.update(
        {
            "bounds.minimize_kraus_gap.s": secs("bounds.minimize_kraus_gap"),
            "bounds.ascend_params.evals": calls("bounds.ascend_objective"),
            "bounds.gap_objective_us": mean_us("bounds.ascend_objective"),
            "bounds.outer_iters_per_restart": ratio(c["bounds.restart_iters"], c["bounds.restarts"]),
            "bounds.converged_frac": ratio(c["bounds.restarts_converged"], c["bounds.restarts"]),
            "bounds.check_bounds.s": secs("bounds.check_bounds"),
        }
    )
    for fn in ("unitary_from_params", "unitary_param_gradient", "eigh_or_error"):
        m[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        m[f"linalg.{fn}.us"] = mean_us(f"linalg.{fn}")
    m["linalg.params_from_unitary.calls"] = calls("linalg.params_from_unitary")
    m["linalg.params_from_unitary.s"] = secs("linalg.params_from_unitary")
    m["linalg.operator_norm.calls"] = calls("linalg.operator_norm")
    m["linalg.require_unitary.calls"] = calls("linalg.require_unitary")
    m["protocol.require_valid.calls"] = calls("protocol.require_valid")
    m["protocol.require_valid.s"] = secs("protocol.require_valid")
    m["fileio.load_s"] = secs("fileio.load_protocol") + secs("fileio.load_scan_config")
    m["cli.render_s"] = secs("cli.render_report") + secs("bounds.scan_to_csv")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    unspanned = traced_wall - top_level
    m["trace.unspanned_s"] = unspanned
    m["trace.wall_s"] = traced_wall
    m["trace.spans"] = nspans
    m["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    accounted = sum(layer_self.values()) + unspanned
    balanced = abs(accounted - traced_wall) <= 1e-6 * traced_wall and unspanned >= 0.0
    return m, balanced


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qbcommit" / "cli.py").is_file():
        sys.stderr.write(f"error: no qbcommit sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import qbcommit.cli

    if Path(qbcommit.cli.__file__).resolve().parent != SRC / "qbcommit":
        sys.stderr.write(f"error: qbcommit imported from {qbcommit.cli.__file__}\n")
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / "inputs" / tag
    for sub in (workdir, OUT / "results", OUT / "spans"):
        sub.mkdir(parents=True, exist_ok=True)
    src_sha = source_digest()
    inputs = WORKLOADS[args.workload](ROOT, workdir, args.seed)
    jobs_by_name = {job.name: job for job in inputs.jobs + [inputs.warmup]}
    store = DigestStore(OUT / "digests.json", f"{src_sha}/{args.workload}/{args.seed}")

    setup = measure_setup(inputs.files)
    warm = run_job(inputs.warmup, paced=args.trace == 0)
    runs = [warm]

    metrics = {}
    balanced = True
    pass_times = []
    if args.trace == 0:
        t_start = time.perf_counter()
        while True:
            done = run_pass(inputs.jobs, paced=True)
            runs += done
            pass_times.append(sum(r["seconds"] for r in done))
            elapsed = time.perf_counter() - t_start
            if elapsed + pass_times[-1] > args.seconds:
                break
    else:
        from tracer import Tracer

        jobs = inputs.traced or inputs.jobs
        untraced = run_pass(jobs)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        runs += untraced + traced
        pass_times = [sum(r["seconds"] for r in untraced), sum(r["seconds"] for r in traced)]
        metrics, balanced = layer_metrics(tracer, pass_times[1], pass_times[0])
        tracer.save(OUT / "spans" / f"{args.workload}.npz", {"seed": args.seed, "src_sha256": src_sha})

    timed = runs[1:]
    warm_failed, _, problems = grade([warm], jobs_by_name, store)
    failed, widths, timed_problems = grade(timed, jobs_by_name, store)
    problems += timed_problems
    store.save()
    attempted = len(timed)
    info = {}
    if args.trace == 0:
        # Raw seconds follow the host's speed; kept as information only.
        info["wall_s"] = median_over_passes(timed, "seconds")
        metrics = {
            "wall_ref": median_over_passes(timed, "cost_ref"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "bracket_width": statistics.fmean(widths) if widths else float("nan"),
        }
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        sys.stderr.write(f"error: metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json\n")
        return 2
    failed_frac = failed / attempted

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_commit": git_commit(),
            "src_sha256": src_sha,
            "src_lines": source_lines(),
            "threads": os.environ["OMP_NUM_THREADS"],
        },
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed_frac,
        "trace_balanced": balanced,
        "pass_seconds": pass_times,
        "setup_samples_s": setup,
        "info": info,
        "jobs": [{k: r[k] for k in ("job", "rc", "seconds", "cost_ref", "sha256")} for r in runs],
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / "results" / f"{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    for p in problems:
        print(f"FAILED {p['job']}: {'; '.join(p['problems'])}")
    print(f"{args.workload} seed={args.seed} passes={len(pass_times)} src_lines={result['environment']['src_lines']}")
    print(f"failed_frac: {failed_frac!r} 1 ({failed}/{attempted})")
    if info:
        print(f"wall_s (raw, ungated): {info['wall_s']!r} s")
    for name, value in metrics.items():
        print(f"{name}: {value!r} {units[name]}")
    summary = {
        "correct": failed == 0 and warm_failed == 0 and balanced,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
