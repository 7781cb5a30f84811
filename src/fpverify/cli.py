"""Command-line front end.

Subcommands: parse, tc, abelianize, simplify, certify, verify.

Exit codes: 0 pass, 1 verification mismatch (or certificate not found),
2 input error, 3 resource limit, 141 stdout closed early (128 + SIGPIPE).
FPVERIFY_MAX_COSETS overrides the default coset limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .certificates import NotFound, search_certificate
from .coset import (
    DEFAULT_MAX_COSETS,
    DEFAULT_STRATEGY,
    STRATEGIES,
    enumerate_cosets,
)
from .presentation import (
    load_presentation_file,
    parse_word,
    print_presentation,
    simplify,
)
from .snf import homology_h1
from .verify import run_all, run_scenario
from .words import CONVENTIONS

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports for a killed writer


def _max_cosets(flag: int | None) -> int:
    """--max-cosets if given, else FPVERIFY_MAX_COSETS, else the default."""
    if flag is not None:
        return flag
    env = os.environ.get("FPVERIFY_MAX_COSETS")
    if env is None:
        return DEFAULT_MAX_COSETS
    try:
        return _int_at_least(1)(env)
    except argparse.ArgumentTypeError as exc:
        print(f"error: FPVERIFY_MAX_COSETS: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _int_at_least(minimum: int):
    """argparse type for an integer option >= minimum; argparse reports a
    bad value and exits with EXIT_INPUT."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") \
                from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _load(path: str, convention: str):
    try:
        return load_presentation_file(path, convention=convention)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except ValueError as exc:  # ParseError is a ValueError
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _emit(data: dict) -> None:
    json.dump(data, sys.stdout, indent=1)
    sys.stdout.write("\n")


def cmd_parse(args) -> int:
    p = _load(args.path, args.convention)
    if args.json:
        _emit(p.to_json())
    else:
        print(print_presentation(p))
    return EXIT_PASS


def cmd_tc(args) -> int:
    p = _load(args.path, args.convention)
    max_cosets = _max_cosets(args.max_cosets)
    try:
        subgroup = tuple(parse_word(w, convention=args.convention)
                         for w in args.subgroup)
        result = enumerate_cosets(p, subgroup, strategy=args.strategy,
                                  max_cosets=max_cosets)
    except ValueError as exc:  # a ParseError, or a generator outside p
        print(f"error: subgroup word: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(result.to_json())
    return EXIT_PASS if result.completed else EXIT_LIMIT


def cmd_abelianize(args) -> int:
    p = _load(args.path, args.convention)
    _emit(homology_h1(p).to_json())
    return EXIT_PASS


def cmd_simplify(args) -> int:
    p = _load(args.path, args.convention)
    simplified, moves = simplify(p, budget=args.budget)
    if args.json:
        _emit({"presentation": simplified.to_json(), "moves": len(moves)})
    else:
        print(print_presentation(simplified))
    return EXIT_PASS


def cmd_certify(args) -> int:
    p = _load(args.path, args.convention)
    try:
        target = parse_word(args.target, convention=args.convention)
        cert = search_certificate(
            p, target, max_factors=args.max_factors,
            max_conjugator_len=args.max_conjugator_len,
            max_states=args.max_states)
    except ValueError as exc:  # a ParseError, or a generator outside p
        print(f"error: target word: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotFound as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    _emit(cert.to_json())
    return EXIT_PASS


def _print_report(report) -> None:
    print(f"{report.scenario}: {report.status.upper()} "
          f"(convention={report.convention}, "
          f"{report.elapsed_ms / 1000.0:.1f}s)")
    if report.source_claim:
        print(f'  source claim ({report.source_location}): '
              f'"{report.source_claim}"')
    for step in report.steps:
        extra = ""
        if step.detail:
            extra = "  " + json.dumps(step.detail, sort_keys=True)
        print(f"  [{step.status:5}] {step.name}{extra}")


def cmd_verify(args) -> int:
    max_cosets = _max_cosets(args.max_cosets)
    try:
        if args.all:
            reports = run_all(convention=args.convention,
                              max_cosets=max_cosets, strategy=args.strategy)
        else:
            reports = [run_scenario(args.scenario,
                                    convention=args.convention,
                                    max_cosets=max_cosets,
                                    strategy=args.strategy)]
    except (KeyError, ValueError) as exc:  # an unknown id, a damaged registry
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        _emit({"reports": [r.to_json() for r in reports]})
    else:
        for r in reports:
            _print_report(r)
    statuses = {r.status for r in reports}
    if "fail" in statuses:
        return EXIT_MISMATCH
    if "limit" in statuses:
        return EXIT_LIMIT
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpverify",
        description="Finitely-presented-group verification toolkit.")
    parser.add_argument("--version", action="version",
                        version=f"fpverify {__version__}")
    parser.add_argument("--convention", choices=CONVENTIONS,
                        default="default",
                        help="commutator expansion convention")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a presentation file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("tc", help="run Todd-Coxeter coset enumeration")
    p.add_argument("path")
    p.add_argument("--strategy", choices=STRATEGIES, default=DEFAULT_STRATEGY)
    p.add_argument("--max-cosets", type=_int_at_least(1), default=None)
    p.add_argument("--subgroup", action="append", default=[],
                   metavar="WORD", help="subgroup generator (repeatable)")
    p.set_defaults(fn=cmd_tc)

    p = sub.add_parser("abelianize", help="first homology of a presentation")
    p.add_argument("path")
    p.set_defaults(fn=cmd_abelianize)

    p = sub.add_parser("simplify", help="greedy Tietze simplification")
    p.add_argument("path")
    p.add_argument("--budget", type=_int_at_least(0), default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_simplify)

    p = sub.add_parser("certify",
                       help="search a consequence certificate for a word")
    p.add_argument("path")
    p.add_argument("--target", required=True, metavar="WORD")
    p.add_argument("--max-factors", type=_int_at_least(0), default=16)
    p.add_argument("--max-conjugator-len", type=_int_at_least(0), default=24)
    p.add_argument("--max-states", type=_int_at_least(0), default=200_000)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("verify", help="replay registered scenarios")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", metavar="ID",
                       help="a registered scenario id; an unknown one is an "
                            "input error that lists the known ids")
    group.add_argument("--all", action="store_true")
    p.add_argument("--strategy", choices=STRATEGIES, default=DEFAULT_STRATEGY)
    p.add_argument("--max-cosets", type=_int_at_least(1), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        # flush here, so that a closed pipe is met inside the guard
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
