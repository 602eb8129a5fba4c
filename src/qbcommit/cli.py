"""Command line front end.

Subcommands: validate, conceal, bind, bounds, scan. Text output and the
structured JSON output are rendered from the same dictionary, so they never
disagree; JSON is dumped with sorted keys and scans default to CSV, which
makes every format byte deterministic for a fixed seed.

Exit codes: 0 on success, 2 for unreadable or invalid inputs, 3 when the
concealment or binding bracket comes out inverted (a numerical
inconsistency, not an input problem).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bounds import GAP_STEPS, ScanBudgets, bounds_report, epsilon_delta_scan, scan_to_csv
from .binding import minimax_cheat
from .concealment import analyze_concealment
from .errors import BracketInversionError, ProtocolFileError, ProtocolValidationError
from .fileio import dump_json, jsonable, load_protocol, load_scan_config
from .optimize import CERTIFIED_WIDTH, _require_tolerance
from .protocol import validate


def _render_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _is_scalar(value) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _render_text(data, lines, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        entries = [(key, ": ", data[key]) for key in sorted(data)]
    elif isinstance(data, list):
        entries = [(f"[{i}]", " ", value) for i, value in enumerate(data)]
    else:
        lines.append(f"{pad}{_render_scalar(data)}")
        return
    for head, sep, value in entries:
        if _is_scalar(value):
            lines.append(f"{pad}{head}{sep}{_render_scalar(value)}")
        elif isinstance(value, list) and all(_is_scalar(v) for v in value):
            inline = ", ".join(_render_scalar(v) for v in value)
            lines.append(f"{pad}{head}{sep}[{inline}]")
        else:
            lines.append(f"{pad}{head}:")
            _render_text(value, lines, indent + 1)


def render_report(data, fmt: str) -> str:
    """One report dictionary, rendered as text or structured JSON."""
    if fmt == "structured":
        return dump_json(data)
    lines = []
    _render_text(jsonable(data), lines)
    return "\n".join(lines) + "\n"


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _count(minimum: int):
    """Argparse type for a budget count or the seed: an integer of at least ``minimum``."""

    def integer(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)

    return integer


def _tolerance(text: str) -> float:
    """Argparse type for ``--tol``: a finite, nonnegative float."""
    try:
        return _require_tolerance(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite, nonnegative number, got {text}") from None


def _add_common(p, tol_help, default_format="text", formats=("text", "structured")):
    seed_help = "master seed of bind, bounds and scan; validate and conceal read none (default 0)"
    p.add_argument("--seed", type=_count(0), default=0, help=seed_help)
    p.add_argument("--tol", type=_tolerance, default=None, help=tol_help)
    p.add_argument(
        "--format",
        choices=formats,
        default=default_format,
        help=f"output format (default {default_format})",
    )
    p.add_argument("--output", default=None, help="write output to this file")


_OUTER_RESTARTS_HELP = (
    "outer ascent restarts of the binding search; it stops at the first scored "
    f"cheat whose certified bound meets the estimate within CERTIFIED_WIDTH = {CERTIFIED_WIDTH:g}"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbcommit",
        description="Numerical cheating analysis for Kraus-pair bit commitment protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a protocol file for completeness")
    p.add_argument("protocol")
    _add_common(p, "completeness tolerance")

    p = sub.add_parser("conceal", help="bracket Bob's distinguishing advantage")
    p.add_argument("protocol")
    _add_common(p, "solver tolerance")

    p = sub.add_parser("bind", help="estimate Alice's best worst-case payoff")
    p.add_argument("protocol")
    _add_common(p, "solver tolerance")
    p.add_argument("--direction", choices=("01", "10"), default="01")
    p.add_argument("--outer-restarts", type=_count(1), help=_OUTER_RESTARTS_HELP)
    p.add_argument("--outer-iters", type=_count(0))
    p.add_argument("--inner-restarts", type=_count(1))
    p.add_argument(
        "--no-swapped",
        action="store_true",
        help="skip the swapped-direction report",
    )

    p = sub.add_parser("bounds", help="check both trade-off inequalities")
    p.add_argument("protocol")
    _add_common(p, "slack before an inequality counts as violated")
    p.add_argument(
        "--states", type=_count(1), dest="n_states", metavar="STATES", help="sampled states per check"
    )
    p.add_argument(
        "--minimize",
        action="store_true",
        help=(
            "also check at a 2m-label cheat minimizing the Kraus gap over contractions; "
            f"its certified bracket stops within CERTIFIED_WIDTH = {CERTIFIED_WIDTH:g} "
            f"or after {GAP_STEPS} steps: the trace bound, then damped Newton on a log-barrier"
        ),
    )

    p = sub.add_parser("scan", help="trade-off scan over a protocol family")
    p.add_argument("config")
    _add_common(
        p, "solver tolerance", default_format="csv", formats=("csv", "text", "structured")
    )
    p.add_argument("--cb-restarts", type=_count(0), help="ignored: the norm search has no restarts")
    p.add_argument("--outer-restarts", type=_count(1), help=_OUTER_RESTARTS_HELP)
    p.add_argument("--outer-iters", type=_count(0))
    p.add_argument("--inner-restarts", type=_count(1))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first ``main`` call, not at import."""
    return build_parser()


def _given(args, *names) -> dict:
    """The named budget and tolerance flags that the user gave, as keyword
    arguments; an omitted flag is left out, so the library default holds."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_validate(args) -> int:
    spec = load_protocol(args.protocol)
    report = validate(spec, **_given(args, "tol"))
    _emit(render_report(report, args.format), args.output)
    return 0 if report.accepted else 2


def _cmd_conceal(args) -> int:
    spec = load_protocol(args.protocol)
    report = analyze_concealment(spec, **_given(args, "tol"))
    _emit(render_report(report, args.format), args.output)
    return 0


def _cmd_bind(args) -> int:
    spec = load_protocol(args.protocol)
    report = minimax_cheat(
        spec,
        direction=args.direction,
        seed=args.seed,
        include_swapped=not args.no_swapped,
        **_given(args, "outer_restarts", "outer_iters", "inner_restarts", "tol"),
    )
    _emit(render_report(report, args.format), args.output)
    return 0


def _cmd_bounds(args) -> int:
    spec = load_protocol(args.protocol)
    given = _given(args, "n_states", "tol")
    report = bounds_report(spec, seed=args.seed, minimize=args.minimize, **given)
    _emit(render_report(report, args.format), args.output)
    return 0


def _cmd_scan(args) -> int:
    config = load_scan_config(args.config)
    budgets = ScanBudgets(**_given(args, "outer_restarts", "outer_iters", "inner_restarts", "tol"))
    result = epsilon_delta_scan(
        config.family,
        config.params,
        budgets=budgets,
        seed=args.seed,
        label=config.label,
    )
    if args.format == "csv":
        _emit(scan_to_csv(result), args.output)
    else:
        _emit(render_report(result, args.format), args.output)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "conceal": _cmd_conceal,
    "bind": _cmd_bind,
    "bounds": _cmd_bounds,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ProtocolFileError, ProtocolValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BracketInversionError as exc:
        sys.stderr.write(f"inconsistent bounds: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
