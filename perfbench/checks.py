"""Output checks for every benchmark job.

Each checker takes one job's stdout text and exit code and returns
``(problems, widths)``: a list of human-readable problems (empty when the
output is correct) and the concealment bracket widths the output reports,
which feed the ``bracket_width`` metric. Checkers read only the printed
report; the conceal checker also recomputes the witness's Helstrom
probability from the protocol it was run on.
"""

from __future__ import annotations

import json

import numpy as np

SCAN_HEADER = "param,eps_lo,eps_hi,delta,minimax,budget_outer,budget_inner,seed"
# eps_lo closed form 2^-k; minimax tolerance matches tests/test_bounds.py.
SCAN_EPS_TOL = 1e-6
SCAN_MINIMAX_TOL = 1e-4
HELSTROM_TOL = 1e-9
ANCHOR_TOL = 1e-6
MARGIN_TOL = 1e-9
# The identity gap (singular values) and the minimized gap (top eigenvalue)
# come from different LAPACK routes, so an optimal identity can tie with a
# last-digit disagreement.
GAP_ORDER_TOL = 1e-12


def check_scan(stdout: str, rc: int, params, seed: int):
    """Decoy scan CSV: fixed header, closed forms per decoy count, ordered bracket."""
    if rc != 0:
        return [f"exit code {rc}"], []
    lines = stdout.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return [f"header {lines[0] if lines else ''!r} differs from {SCAN_HEADER!r}"], []
    rows = lines[1:]
    if len(rows) != len(params):
        return [f"{len(rows)} rows for {len(params)} parameters"], []
    problems, widths = [], []
    for k, row in zip(params, rows):
        fields = row.split(",")
        if len(fields) != 8:
            problems.append(f"row {row!r} has {len(fields)} fields")
            continue
        try:
            param, eps_lo, eps_hi, _delta, minimax = (float(x) for x in fields[:5])
            row_seed = int(fields[7])
        except ValueError:
            problems.append(f"row {row!r} does not parse")
            continue
        if param != k:
            problems.append(f"param {param!r} where {k!r} was scanned")
        if abs(eps_lo - 2.0**-k) > SCAN_EPS_TOL:
            problems.append(f"k={k}: eps_lo {eps_lo!r} misses 2^-k")
        if abs(minimax - (1.0 - 0.75 * 2.0**-k)) > SCAN_MINIMAX_TOL:
            problems.append(f"k={k}: minimax {minimax!r} misses 1 - 0.75*2^-k")
        if not eps_lo <= eps_hi:
            problems.append(f"k={k}: eps_lo {eps_lo!r} above eps_hi {eps_hi!r}")
        if row_seed != seed:
            problems.append(f"k={k}: seed column {row_seed} for seed {seed}")
        widths.append(eps_hi - eps_lo)
    return problems, widths


def _state_from_pairs(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def check_conceal(stdout: str, rc: int, spec, anchor=None):
    """Structured conceal report: ordered bracket whose lower end its witness attains.

    ``anchor`` maps report keys to closed-form values the report must hit.
    """
    if rc != 0:
        why = " (inverted bracket)" if rc == 3 else ""
        return [f"exit code {rc}{why}"], []
    try:
        report = json.loads(stdout)
        lo, hi = float(report["cb_lower"]), float(report["cb_upper"])
        witness = _state_from_pairs(report["witness_state"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc}"], []
    from qbcommit.concealment import helstrom_prob

    problems = []
    if not lo <= hi:
        problems.append(f"cb_lower {lo!r} above cb_upper {hi!r}")
    try:
        achieved = helstrom_prob(spec, witness)
    except ValueError as exc:
        return problems + [f"witness rejected: {exc}"], []
    if abs(achieved - (0.5 + lo / 4.0)) > HELSTROM_TOL:
        problems.append(f"witness reaches {achieved!r}, report claims {0.5 + lo / 4.0!r}")
    for key, value in (anchor or {}).items():
        if abs(float(report[key]) - value) > ANCHOR_TOL:
            problems.append(f"{key} {report[key]!r} misses closed form {value!r}")
    return problems, [hi - lo]


def parse_text_report(stdout: str) -> dict:
    """Top-level and first-level scalars of a text report, as raw strings.

    Keys of nested blocks map to ``None``, so a non-empty list (rendered as
    an indented block) never reads as ``[]``.
    """
    out = {}
    section = None
    for line in stdout.splitlines():
        if not line.startswith(" "):
            key, sep, value = line.partition(": ")
            section = None if sep else key.rstrip(":")
            if sep:
                out[key] = value
        elif section is not None and line[:2] == "  " and line[2:3] not in ("", " "):
            key, sep, value = line[2:].partition(": ")
            out[f"{section}.{key.rstrip(':')}"] = value if sep else None
    return out


def check_bounds(stdout: str, rc: int):
    """Text bounds report with --minimize: no violations, margins hold, gap shrinks."""
    if rc != 0:
        return [f"exit code {rc}"], []
    report = parse_text_report(stdout)
    problems = []
    try:
        for section in ("identity", "minimized"):
            if report.get(f"{section}.violations") != "[]":
                problems.append(f"{section}: violations reported")
            for margin in ("concealment_margin", "binding_margin"):
                value = float(report[f"{section}.{margin}"])
                if not value >= -MARGIN_TOL:
                    problems.append(f"{section}: {margin} {value!r} below -{MARGIN_TOL}")
        gap_min = float(report["minimized_gap"])
        gap_id = float(report["identity.kraus_gap"])
        half_sqrt = float(report["minimized.half_sqrt_gap"])
        quarter = float(report["minimized.quarter_cb_lower"])
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"report does not parse: {exc!r}"], []
    if not gap_min <= gap_id + GAP_ORDER_TOL:
        problems.append(f"minimized gap {gap_min!r} above identity gap {gap_id!r}")
    # Norm bracket [cb_lower, 2 sqrt(gap)] through the minimized reindexing.
    return problems, [4.0 * (half_sqrt - quarter)]
