"""Command-line front end.

Subcommands:

    bench   timed enroll/auth/transact cycles, JSON report + text table
    attack  the full adversary suite plus literal-mode defect demos
    demo    deterministic end-to-end walkthrough, transcript to a file
    audit   run a demo transcript's demo again and compare the bytes

Exit codes: 0 success, 1 usage error, 2 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import run_bench, validate_report
from .params import PRESETS
from .scenarios import MAX_SCALE, SUITE_NAMES, audit_transcript, run_attack_suite, run_demo

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _seed(text: str) -> int:
    """A non-negative integer, as ``random.Random`` and numpy accept."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _iterations(text: str) -> int:
    """A positive integer."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _suites(text: str) -> tuple[str, ...]:
    """A comma-separated, non-empty subset of :data:`SUITE_NAMES`."""
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise argparse.ArgumentTypeError("must name at least one suite")
    unknown = set(names) - set(SUITE_NAMES)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown suite(s): {', '.join(sorted(unknown))}")
    return names


def _scale(text: str) -> float:
    """A number with 0 < scale <= :data:`MAX_SCALE`."""
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not 0 < scale <= MAX_SCALE:
        raise argparse.ArgumentTypeError(f"must be a number above 0 and at most {MAX_SCALE:g}, "
                                         f"got {text!r}")
    return scale


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--params", choices=sorted(PRESETS), default="default",
                        help="parameter preset")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pufzk", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the benchmark harness")
    bench.add_argument("--iterations", type=_iterations, default=50)
    bench.add_argument("--seed", type=_seed, default=0)
    bench.add_argument("--out", default=None, help="path for the JSON report")
    _add_params(bench)

    attack = sub.add_parser("attack", help="run the adversary suite")
    attack.add_argument("--out", default=None, help="path for the JSON summary")
    attack.add_argument("--seed", type=_seed, default=0)
    attack.add_argument("--suite", type=_suites, default=None,
                        help=f"comma-separated subset of: {', '.join(SUITE_NAMES)}")
    attack.add_argument("--scale", type=_scale, default=1.0,
                        help=f"scale factor for trial counts, above 0 and at most "
                             f"{MAX_SCALE:g} (below 1 for quick runs)")
    _add_params(attack)

    demo = sub.add_parser("demo", help="deterministic protocol walkthrough")
    demo.add_argument("--seed", type=_seed, default=0)
    demo.add_argument("--out", default="demo.transcript",
                      help="transcript output path (line-delimited hex)")
    _add_params(demo)

    audit = sub.add_parser("audit", help="run a transcript's demo again and compare the bytes")
    audit.add_argument("path", help="transcript file produced by demo, whose meta line "
                                    "names a seed and a preset")

    return parser


def _cmd_bench(args) -> int:
    params = PRESETS[args.params]
    report = run_bench(iterations=args.iterations, seed=args.seed, params=params)
    problems = validate_report(report.to_dict())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"wrote {args.out}")
    print(report.to_text())
    if problems:
        for p in problems:
            print(f"report invariant violated: {p}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_attack(args) -> int:
    params = PRESETS[args.params]
    report = run_attack_suite(seed=args.seed, params=params, suites=args.suite, scale=args.scale)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(report.to_dict(), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write summary: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"wrote {args.out}")
    print(report.to_text())
    return EXIT_OK if report.passed() else EXIT_FAILURE


def _cmd_demo(args) -> int:
    params = PRESETS[args.params]
    transcript, summary = run_demo(seed=args.seed, params=params)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(transcript)
    except OSError as exc:
        print(f"error: cannot write transcript: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out}")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    if not summary["chain_ok"] or not summary["replay_rejected"]:
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_audit(args) -> int:
    try:
        with open(args.path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"error: cannot read transcript: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ok, findings = audit_transcript(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        ok, findings = False, [f"byte {exc.start}: not UTF-8 text"]
    for line in findings:
        print(f"  {line}")
    print("audit: PASS" if ok else "audit: FAIL")
    return EXIT_OK if ok else EXIT_FAILURE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "bench": _cmd_bench,
        "attack": _cmd_attack,
        "demo": _cmd_demo,
        "audit": _cmd_audit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
