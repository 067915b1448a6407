"""Command-line front end.

Exit codes: 0 success, 1 usage / malformed input (including an ``--out``
path that cannot be written, and a stdout whose reader has gone),
2 precondition violation, 3 resource cap (including counting budgets),
4 internal error (an ``InternalError``, or any other unexpected exception,
reported on one line).

``run`` is the program entry (``python -m slicekit`` and the ``slicekit``
script); ``main(argv)`` is the same command for in-process callers.

Each process compiles only the layers its command runs: the brute-force
oracle is imported by the ``oracle`` command and the SVG figure code
(``render``) by the ``render`` command, each inside its branch, so every
other command starts without them.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

from .analysis import Analysis, dim_u1, enumerate_achievable_r, measure_ur, witness_ur
from .counting import DEFAULT_BUDGET, exact_card, lyapunov_estimate
from .errors import InternalError, OutOfRange, SlicekitError, TooLarge, UsageError
from .graphs import component_matrix
from .instance import ProblemInstance, parse_instance
from .lattice import covering_condition, strong_separation, xi_types
from .report import (
    build_report,
    checks_json,
    decimal,
    format_rational,
    parse_rational,
    radius_json,
    report_json,
    witness_json,
)
from .spectral import transition_matrices

# Most entries of the digit matrices T and the restricted graph's matrix M
# together that `analyze` and `matrices` print: n=3 at span 601 prints about
# 2.5 million, and at span 2001 T alone has 12 million.
_MATRIX_CAP = 2**22


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


def _check_printable(inst: ProblemInstance) -> None:
    """Refuse with TooLarge an instance whose T (n * span**2 entries) and
    M (|xi|**2 entries) hold more than _MATRIX_CAP entries together; |xi|
    is read from the xi types, and only once T fits."""
    entries = inst.n * inst.span**2
    if entries <= _MATRIX_CAP:
        entries += len(xi_types(inst)) ** 2
    if entries > _MATRIX_CAP:
        raise TooLarge(f"the matrices T and M hold more than {_MATRIX_CAP} entries")


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slicekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="path to an instance JSON document")
        p.add_argument("--out", help="write output to this path instead of stdout")
        return p

    p = add("analyze", "full report: checks, graphs, matrices, dimensions, multiplicities")
    p.add_argument("--max-r", type=int, default=6)

    p = add("check", "covering and strong-separation checks plus the basic bounds")
    p.add_argument("--json", action="store_true", help="emit JSON")
    add("matrices", "the 0-1 transition matrix and the digit count matrices")
    add("dim-u1", "dimension/measure report for the uniquely represented set")

    p = add("count", "exact number of representations of a rational point")
    p.add_argument("--x", required=True, help="rational point, e.g. 1/3")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument(
        "--explain",
        action="store_true",
        help="also write the cycle certificate that proves the verdict",
    )

    p = add("oracle", "brute-force depth-k cube count (and chains) through a point")
    p.add_argument("--x", required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--solutions", action="store_true", help="also list surviving chains")

    p = add("enumerate-r", "classify multiplicities 1..max_r")
    p.add_argument("--max-r", type=int, default=6)

    p = add("dim-ur", "dimension of the multiplicity-r set")
    p.add_argument("--r", type=int, required=True)

    p = add("witness", "eventually periodic point with exactly r representations")
    p.add_argument("--r", type=int, required=True)

    p = add("lyapunov", "Monte-Carlo growth exponent of random digit products")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--depth", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("render", "SVG figure of the unit square, digit cubes and projection lines")
    p.add_argument("--depth", type=int, default=1)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
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
    if cmd in ("analyze", "matrices"):
        _check_printable(inst)
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
        context = Analysis(inst)
        xi = context.xi
        payload = {
            "xi": [u for (u,) in xi.vertices],
            "M": [list(r) for r in component_matrix(xi.succ, range(len(xi.succ)))],
            "rho": radius_json(context.u1.rho),
            "T": [
                {"digit": m.digit, "rows": [list(r) for r in m.entries]}
                for m in transition_matrices(inst)
            ],
        }
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
        rep = measure_ur(enumerate_achievable_r(inst, args.r), args.r)
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
