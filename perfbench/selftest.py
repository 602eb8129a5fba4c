"""Self-test of the benchmark's output checks.

Each checker must accept a genuine report and reject every doctored copy
of it; the digest store must reject a changed output at the same seed.
Run from the repository root:

    python3 perfbench/selftest.py
"""

import contextlib
import io
import sys

import run  # pins BLAS/OpenMP threads before numpy loads

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402

PROTOCOLS = run.ROOT / "protocols"


def cli_output(argv) -> str:
    import qbcommit.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = qbcommit.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return out.getvalue()


def expect(name, check, genuine, doctored) -> int:
    """0 when ``genuine`` passes and every doctored report fails; else 1.

    A doctored entry is ``(text, rc)``, or ``(text, rc, check)`` to grade
    the genuine text against a different expectation.
    """
    problems, _ = check(genuine, 0)
    if problems:
        print(f"FAIL {name}: genuine report rejected: {problems}")
        return 1
    bad = 0
    for label, (text, rc, *other_check) in doctored.items():
        problems, _ = (other_check[0] if other_check else check)(text, rc)
        verdict = "rejected" if problems else "ACCEPTED"
        bad += not problems
        print(f"{'ok  ' if problems else 'FAIL'} {name} / {label}: {verdict}")
    return int(bad > 0)


def scan_case() -> int:
    params, seed = [0.0, 1.0, 2.0, 3.0], 7
    rows = [
        f"{k!r},{2.0**-k!r},{2.0 * 2.0**-k!r},{0.75 * 2.0**-k!r},{1 - 0.75 * 2.0**-k!r},4,8,{seed}"
        for k in params
    ]
    genuine = "\n".join([checks.SCAN_HEADER] + rows) + "\n"
    lines = genuine.splitlines()

    def with_row(i, row):
        return "\n".join(lines[: i + 1] + [row] + lines[i + 2 :]) + "\n"

    def field(i, j, value):
        fields = lines[i + 1].split(",")
        fields[j] = value
        return with_row(i, ",".join(fields))

    doctored = {
        "header renamed": (genuine.replace("minimax", "mini_max"), 0),
        "eps_lo off by 2e-6": (field(2, 1, repr(0.25 + 2e-6)), 0),
        "minimax off by 2e-4": (field(3, 4, repr(1 - 0.75 / 8 - 2e-4)), 0),
        "eps_lo above eps_hi": (field(0, 2, repr(0.5)), 0),
        "row dropped": ("\n".join(lines[:-1]) + "\n", 0),
        "seed column changed": (field(1, 7, str(seed + 1)), 0),
        "nonzero exit": (genuine, 2),
    }
    return expect("scan", lambda out, rc: checks.check_scan(out, rc, params, seed), genuine, doctored)


def conceal_case() -> int:
    import json

    from qbcommit.fileio import load_protocol

    path = PROTOCOLS / "identity-vs-phase-flip.json"
    spec = load_protocol(path)
    genuine = cli_output(["conceal", str(path), "--format", "structured", "--seed", "3"])
    report = json.loads(genuine)

    def edit(**changes):
        return json.dumps(dict(report, **changes)), 0

    witness = report["witness_state"]
    shrunk = [[re * 0.999, im * 0.999] for re, im in witness]
    nudged = [[re + 0.1, im] for re, im in witness[:1]] + witness[1:]
    scale = sum(re * re + im * im for re, im in nudged) ** -0.5
    nudged = [[re * scale, im * scale] for re, im in nudged]
    doctored = {
        "cb_lower raised by 1e-6": edit(cb_lower=report["cb_lower"] + 1e-6),
        "bracket inverted": edit(cb_upper=report["cb_lower"] - 0.1),
        "witness not a unit vector": edit(witness_state=shrunk),
        "witness moved": edit(witness_state=nudged),
        "exit 3": (genuine, 3),
        "truncated JSON": (genuine[:-10], 0),
        "closed form missed": (
            genuine,
            0,
            lambda out, rc: checks.check_conceal(out, rc, spec, {"cb_lower": 1.0}),
        ),
    }
    anchor = {"cb_lower": 2.0, "cb_upper": 2.0}
    return expect(
        "conceal", lambda out, rc: checks.check_conceal(out, rc, spec, anchor), genuine, doctored
    )


def bounds_case() -> int:
    path = PROTOCOLS / "dephasing-zx.json"
    genuine = cli_output(["bounds", str(path), "--minimize", "--seed", "3"])
    report = checks.parse_text_report(genuine)

    def replace_in(section, key, value):
        out, current = [], None
        for line in genuine.splitlines():
            if not line.startswith(" "):
                current = line.rstrip(":")
            if current == section and line.startswith(f"  {key}:"):
                line = f"  {key}: {value}" if value is not None else f"  {key}:\n    [0]:\n      kind: binding"
            out.append(line)
        return "\n".join(out) + "\n", 0

    gap_id = float(report["identity.kraus_gap"])
    doctored = {
        "identity violation listed": replace_in("identity", "violations", None),
        "minimized violation listed": replace_in("minimized", "violations", None),
        "concealment margin -1e-8": replace_in("identity", "concealment_margin", "-1e-08"),
        "binding margin -1e-8": replace_in("minimized", "binding_margin", "-1e-08"),
        "minimized gap above identity": (
            genuine.replace(f"minimized_gap: {report['minimized_gap']}", f"minimized_gap: {gap_id + 1e-6!r}"),
            0,
        ),
        "minimized section missing": (genuine.split("minimized:")[0], 0),
        "nonzero exit": (genuine, 1),
    }
    return expect("bounds", checks.check_bounds, genuine, doctored)


def digest_case() -> int:
    store = run.DigestStore(run.OUT / "selftest-unsaved.json", "src/workload/1")
    ok = store.verify("job", "a" * 64) and store.verify("job", "a" * 64)
    rejected = not store.verify("job", "b" * 64)
    print(f"{'ok  ' if ok and rejected else 'FAIL'} digest / changed stdout at same seed: "
          f"{'rejected' if rejected else 'ACCEPTED'}")
    return int(not (ok and rejected))


def main() -> int:
    failures = scan_case() + conceal_case() + bounds_case() + digest_case()
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
