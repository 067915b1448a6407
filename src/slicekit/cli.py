"""Command-line front end.  Exit codes: 0 success, 1 usage / malformed
input (including an --out path that cannot be written, and a stdout whose
reader has gone), 2 precondition violation, 3 resource cap (including
counting budgets), 4 internal error (an InternalError, or any other
unexpected exception, reported on one line).

The first paragraph is the top-level help's description.  ``run`` is the
program entry (``python -m slicekit`` and the ``slicekit`` script);
``main(argv)`` is the same command for in-process callers.

Each process compiles only the layers its command runs: the brute-force
oracle is imported by the ``oracle`` command and the SVG figure code
(``render``) by the ``render`` command, each inside its branch, and the
Lyapunov stepping (``_lyapunov``, with numpy) by ``lyapunov`` once its
arguments pass, so every other command starts without them.  The parser
registers only the subparser of the command named first, or all of them
when the first argument names no command.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .analysis import dim_u1, dim_ur, enumerate_achievable_r, witness_ur
from .counting import DEFAULT_BUDGET, exact_card, lyapunov_estimate
from .errors import InternalError, OutOfRange, SlicekitError, TooLarge, UsageError
from .instance import ProblemInstance, parse_instance
from .lattice import covering_condition, strong_separation
from .report import (
    build_report,
    checks_json,
    decimal,
    format_rational,
    matrices_json,
    parse_rational,
    radius_json,
    report_json,
    witness_json,
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as an option
        # unless it looks like a negative number; a negative p/q is one too
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _load(path: str) -> ProblemInstance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return parse_instance(text)


def _check_printable_count(count: int) -> int:
    """Refuse with TooLarge a count of more decimal digits than Python will
    write out as text (``sys.get_int_max_str_digits()``, 4300 by default;
    0, or a release older than the limit, means none).  The limit stays as
    it is, since it also guards the parsing of instance files."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and count >= 10**limit:
        raise TooLarge(
            f"the count has more than {limit} decimal digits, Python's limit for printing an int"
        )
    return count


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# Each command: its help line, then its options after the instance path and
# --out, as (flag, add_argument keywords) pairs, in the order help lists them.
_COMMANDS = {
    "analyze": (
        "full report: checks, graphs, matrices, dimensions, multiplicities",
        [("--max-r", {"type": int, "default": 6})],
    ),
    "check": (
        "covering and strong-separation checks plus the basic bounds",
        [("--json", {"action": "store_true", "help": "emit JSON"})],
    ),
    "matrices": ("the 0-1 transition matrix and the digit count matrices", []),
    "dim-u1": ("dimension/measure report for the uniquely represented set", []),
    "count": (
        "exact number of representations of a rational point",
        [
            ("--x", {"required": True, "help": "rational point, e.g. 1/3"}),
            ("--budget", {"type": int, "default": DEFAULT_BUDGET}),
            ("--max-depth", {"type": int, "default": None}),
            (
                "--explain",
                {
                    "action": "store_true",
                    "help": "also write the cycle certificate that proves the verdict",
                },
            ),
        ],
    ),
    "oracle": (
        "brute-force depth-k cube count (and chains) through a point",
        [
            ("--x", {"required": True}),
            ("--depth", {"type": int, "default": 4}),
            ("--solutions", {"action": "store_true", "help": "also list surviving chains"}),
        ],
    ),
    "enumerate-r": (
        "classify multiplicities 1..max_r",
        [("--max-r", {"type": int, "default": 6})],
    ),
    "dim-ur": (
        "dimension of the multiplicity-r set",
        [("--r", {"type": int, "required": True})],
    ),
    "witness": (
        "eventually periodic point with exactly r representations",
        [("--r", {"type": int, "required": True})],
    ),
    "lyapunov": (
        "Monte-Carlo growth exponent of random digit products",
        [
            ("--samples", {"type": int, "default": 10000}),
            ("--depth", {"type": int, "default": 1000}),
            ("--seed", {"type": int, "default": 0}),
        ],
    ),
    "render": (
        "SVG figure of the unit square, digit cubes and projection lines",
        [("--depth", {"type": int, "default": 1})],
    ),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of the command line ``argv``.

    When ``argv[0]`` names a command, only that command's subparser is
    registered: it alone parses the rest, so its help and its errors read
    as they would with every command registered.  Otherwise (no arguments,
    ``--help``, an unknown command or an option before the command) all of
    them are, for the top-level help and errors.
    """
    parser = _Parser(prog="slicekit", description=(__doc__ or "").partition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (help_text, options) in _COMMANDS.items():
        if wanted is not None and name != wanted:
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="path to an instance JSON document")
        p.add_argument("--out", help="write output to this path instead of stdout")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = build_parser(argv).parse_args(argv)
        except SystemExit as exc:  # argparse --help, written to stdout
            code = int(exc.code or 0)
        else:
            code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: the "Note on SIGPIPE" recipe of the
        # signal docs, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SlicekitError as exc:
        print(f"slicekit: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # a bug: one line, not a traceback
        print(f"slicekit: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return InternalError.exit_code


def run() -> None:
    """Run the command of ``sys.argv`` and exit with its code.

    The collector is frozen first: at exit the interpreter collects every
    tracked object and frees the import graph's cycles, and frozen objects
    sit in the permanent generation, which those collections skip.  atexit
    handlers and the final flush of stdout and stderr still run.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


def _dispatch(args) -> int:
    # dim-ur and witness: the range of --r comes before the instance's hypotheses
    if getattr(args, "r", 1) < 1:
        raise OutOfRange(f"--r must be >= 1, got {args.r}")
    inst = _load(args.instance)
    cmd = args.command
    code = 0
    if cmd == "analyze":
        payload = build_report(inst, max_r=args.max_r)
    elif cmd == "check":
        payload = checks_json(inst, covering_condition(inst), strong_separation(inst))
        if not args.json:
            lines = [
                f"bounds: [{inst.proj_min}, {inst.proj_max}], norm1={inst.span}",
                f"covering: {payload['covering']}",
                f"strong separation: {payload['ssc']}",
            ]
            _emit("\n".join(lines) + "\n", args.out)
            return 0
    elif cmd == "matrices":
        payload = matrices_json(inst)
    elif cmd == "dim-u1":
        rep = dim_u1(inst)
        payload = {
            "dim": {"decimal": decimal(rep.s)},
            "dim_exact": rep.dim_exact,
            "measure_class": rep.measure_class,
            "rho": radius_json(rep.rho),
            "notes": list(rep.notes),
        }
    elif cmd == "count":
        x = parse_rational(args.x)
        result = exact_card(inst, x, budget=args.budget, max_depth=args.max_depth)
        payload = {
            "x": format_rational(x),
            "verdict": result.verdict,
            "count": result.count,
            "depth_reached": result.depth_reached,
        }
        if args.explain:
            cert = result.certificate
            payload["certificate"] = None if cert is None else asdict(cert)
        code = 3 if result.verdict == "ExceedsBudget" else 0
    elif cmd == "oracle":
        from .oracle import brute_force_cube_count, brute_force_solutions

        x = parse_rational(args.x)
        payload = {
            "x": format_rational(x),
            "depth": args.depth,
            "count": _check_printable_count(brute_force_cube_count(inst, x, args.depth)),
        }
        if args.solutions:
            payload["chains"] = [
                {
                    "digits": [list(t) for t in chain.digits],
                    "interval": [
                        format_rational(chain.interval[0]),
                        format_rational(chain.interval[1]),
                    ],
                }
                for chain in brute_force_solutions(inst, x, args.depth)
            ]
    elif cmd == "enumerate-r":
        search = enumerate_achievable_r(inst, max_r=args.max_r)
        payload = {
            "achievable": search.achievable(),
            "statuses": {
                str(r): st.status for r, st in sorted(search.statuses.items())
            },
        }
    elif cmd == "dim-ur":
        rep = dim_ur(enumerate_achievable_r(inst, args.r), args.r)
        payload = {
            "r": args.r,
            "dim": {"decimal": decimal(rep.dim)},
            "candidates": [decimal(c) for c in rep.candidates],
            "countable": rep.countable_flag,
            "measure_class": rep.measure_class,
        }
    elif cmd == "witness":
        w = witness_ur(enumerate_achievable_r(inst, args.r), args.r)
        payload = {"r": args.r, **witness_json(w, inst.n)}
    elif cmd == "lyapunov":
        estimate, stderr = lyapunov_estimate(
            inst, samples=args.samples, depth=args.depth, seed=args.seed
        )
        payload = {
            "samples": args.samples,
            "depth": args.depth,
            "seed": args.seed,
            "estimate": decimal(estimate),
            "stderr": decimal(stderr),
        }
    elif cmd == "render":
        from .render import render_grid

        svg = render_grid(inst, depth=args.depth)
        _emit(svg, args.out)
        return 0
    else:
        raise UsageError(f"unknown command {cmd!r}")
    _emit(report_json(payload), args.out)
    return code


if __name__ == "__main__":
    run()
