"""The three benchmark workloads: their inputs, their ops and their output
checks.

Inputs depend only on the seed and the run length.  slicekit is reached
through module attributes looked up at call time (``report.build_report``,
not a name bound at import), so the per-layer tracer sees every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

from yardstick import LoopYardstick, StartYardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
RUNS = BENCH / "runs"

BUNDLED = (
    "base6_mixed",
    "base7_double",
    "cantor_diff",
    "cantor_double_diff",
    "cantor_sum",
    "full_interval",
    "no_cover",
)


def _doc(n: int, digits: list[int], coefficients: tuple[int, ...]) -> str:
    return json.dumps(
        {"n": n, "digit_sets": [digits] * len(coefficients), "coefficients": list(coefficients)},
        sort_keys=True,
    )


# The scaled family.  Spans 9..17 walk the n=3 {0,2} two-factor family up
# to the first instance whose subset graph needs ``reachable`` mode (17);
# n=7 and n=5 raise the base; l=3 and l=4 are small-xi instances where the
# fixed per-report overhead dominates.
SCALED = {
    "span9": _doc(3, [0, 2], (-4, 5)),
    "span13": _doc(3, [0, 2], (-6, 7)),
    "span15": _doc(3, [0, 2], (-7, 8)),
    "span17": _doc(3, [0, 2], (-8, 9)),
    "n7": _doc(7, [0, 3, 6], (-2, 5)),
    "n5": _doc(5, [0, 2, 4], (-5, 6)),
    "l3": _doc(3, [0, 2], (-4, 4, 5)),
    "l4": _doc(3, [0, 2], (-2, 3, -3, 4)),
}

# One analyze-scaled pass takes 6-9 s at the seed commit.
ANALYZE_SECONDS_PER_PASS = 10

# Instances satisfying covering and strong separation, so every point has
# a documented verdict.
COUNT_INSTANCES = ("cantor_diff", "cantor_sum", "cantor_double_diff", "span9", "n5_narrow")
_EXTRA_COUNT_DOCS = {"span9": SCALED["span9"], "n5_narrow": _doc(5, [0, 2, 4], (-4, 5))}
COUNT_DENOMINATORS = range(2, 82)
# At the seed commit a count-sweep point takes 40-60 ms on average, so one
# point per (instance, denominator) is about 20 seconds of timed phase;
# two, at the usual 30-second run length, halve the seed's effect on the
# latency median.
COUNT_SECONDS_PER_STRATUM = 15

# Finite points whose counts the README documents.
CLI_COUNTS = (("cantor_diff", "1/3", 3), ("cantor_sum", "1/2", 1))
CLI_MATRICES = ("cantor_diff", "base7_double")
CLI_LYAPUNOV = ("lyapunov", "cantor_diff", "--samples", "2000", "--depth", "200", "--seed", "1")
# One CLI call takes about a third of a second at the seed commit.
CLI_OPS_PER_SECOND = 3


def bundled_text(name: str) -> str:
    return (ROOT / "instances" / f"{name}.json").read_text(encoding="utf-8")


def instance_text(label: str) -> str:
    if label in SCALED:
        return SCALED[label]
    if label in _EXTRA_COUNT_DOCS:
        return _EXTRA_COUNT_DOCS[label]
    return bundled_text(label)


@dataclass(frozen=True)
class Op:
    label: str
    arg: object


@dataclass
class Inputs:
    """``ops`` in run order.  With ``passes`` > 1 the list is that many
    equal passes, and each pass runs in its own fresh process."""

    ops: list[Op]
    documents: dict[str, str]
    passes: int = 1

    def pass_ops(self, index: int) -> list[Op]:
        size = len(self.ops) // self.passes
        return self.ops[index * size : (index + 1) * size]


def _expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def _card_problem(inst, x: Fraction, result) -> str | None:
    """Cross-check an ``exact_card`` result against the brute-force oracle
    at the depths the result names."""
    from slicekit import oracle

    def cubes(depth: int) -> int:
        return oracle.brute_force_cube_count(inst, x, depth)

    cert = result.certificate
    at_end = cubes(result.depth_reached)
    if result.verdict == "ExceedsBudget":
        if at_end != result.count:
            return f"count {result.count} but oracle {at_end} at depth {result.depth_reached}"
        return None
    if cert is None:
        return f"{result.verdict} without a certificate"
    at_start = cubes(cert.start_depth)
    if (at_start, at_end) != (cert.cardinality_before, cert.cardinality_after):
        return (
            f"certificate ({cert.cardinality_before}, {cert.cardinality_after}) but oracle "
            f"({at_start}, {at_end}) at depths ({cert.start_depth}, {result.depth_reached})"
        )
    if result.verdict == "Finite" and not at_start == at_end == result.count:
        return f"Finite {result.count} but oracle {at_start} -> {at_end}"
    if result.verdict == "Infinite" and not at_end > at_start:
        return f"Infinite but oracle {at_start} -> {at_end} does not grow"
    return None


class AnalyzeScaled:
    """One op is ``build_report(parse_instance(text))`` at the default
    ``max_r`` and ``budget``.

    A pass runs each scaled instance once, in a seeded order, in a fresh
    process, so no instance repeats within a process and a process-wide
    memo cannot turn a repeat into a gain.  Several passes let the run
    report per-instance medians, which a burst of machine noise during one
    pass does not move.
    """

    name = "analyze-scaled"
    yardstick = LoopYardstick

    def prepare(self, seed: int, seconds: int) -> Inputs:
        rng = random.Random(seed)
        passes = max(1, seconds // ANALYZE_SECONDS_PER_PASS)
        ops = []
        for _ in range(passes):
            labels = sorted(SCALED)
            rng.shuffle(labels)
            ops.extend(Op(label, SCALED[label]) for label in labels)
        return Inputs(ops, dict(SCALED), passes)

    def run(self, op: Op, tracer=None):
        from slicekit import instance, report

        return report.build_report(instance.parse_instance(op.arg))

    def check(self, op: Op, result) -> list[str]:
        from slicekit import counting, instance, report

        expected = _expected()[self.name][op.label]
        data = result["data"]
        problems = []
        if data["r_search"].get("achievable") != expected["achievable"]:
            problems.append(f"achievable {data['r_search'].get('achievable')}")
        dim = data["u1"]["dim"]
        if [dim["lower"], dim["upper"]] != expected["u1_dim"]:
            problems.append(f"u1 enclosure [{dim['lower']}, {dim['upper']}]")
        inst = instance.parse_instance(op.arg)
        for r, entry in data["ur"].items():
            witness = entry.get("witness")
            if witness is None:
                continue
            x = report.parse_rational(witness["value"])
            card = counting.exact_card(inst, x)
            problem = _card_problem(inst, x, card)
            if problem:
                problems.append(f"witness r={r}: {problem}")
            truth = card.verdict == "Finite" and card.count == int(r)
            if witness["verified"] != truth:
                problems.append(
                    f"witness r={r}: verified={witness['verified']} "
                    f"but count is {card.verdict} {card.count}"
                )
            if expected["witness_verified"].get(r) and not witness["verified"]:
                problems.append(f"witness r={r} no longer verifies")
        return problems

    def summary(self, op: Op, result) -> list[str]:
        """The multiplicities whose witness the report does not verify."""
        return [
            r
            for r, entry in result["data"]["ur"].items()
            if "witness" in entry and not entry["witness"]["verified"]
        ]

    def extras(self, summaries: list[tuple[str, list[str]]]) -> dict:
        unverified = {(label, r) for label, rs in summaries if rs for r in rs}
        return {"unverified_witnesses": len(unverified)}


class CountSweep:
    """One op is ``exact_card(inst, x)`` at the default budget.

    Points are stratified: for every instance and every denominator q in
    [2, 81], the seed draws ``k`` numerators p, one from each of k equal
    bands of [q*proj_min, q*proj_max], with gcd(p, q) = 1.  Every x is then
    distinct and in lowest terms, and the mix of denominators is the same
    for every seed, which keeps the seed-to-seed spread small.  Pass j holds
    band j of every stratum, in a seeded order, and runs in its own process.
    """

    name = "count-sweep"
    yardstick = LoopYardstick

    def prepare(self, seed: int, seconds: int) -> Inputs:
        from slicekit import instance

        rng = random.Random(seed)
        per_stratum = -(-seconds // COUNT_SECONDS_PER_STRATUM)
        documents = {label: instance_text(label) for label in COUNT_INSTANCES}
        passes: list[list[Op]] = [[] for _ in range(per_stratum)]
        for label in COUNT_INSTANCES:
            inst = instance.parse_instance(documents[label])
            for q in COUNT_DENOMINATORS:
                lo, hi = q * inst.proj_min, q * inst.proj_max
                for band, ops in enumerate(passes):
                    a = lo + (hi - lo + 1) * band // per_stratum
                    b = lo + (hi - lo + 1) * (band + 1) // per_stratum - 1
                    p = rng.choice([p for p in range(a, b + 1) if gcd(p, q) == 1])
                    ops.append(Op(f"{label} {p}/{q}", (inst, Fraction(p, q))))
        for ops in passes:
            rng.shuffle(ops)
        return Inputs([op for ops in passes for op in ops], documents, per_stratum)

    def run(self, op: Op, tracer=None):
        from slicekit import counting

        inst, x = op.arg
        return counting.exact_card(inst, x)

    def check(self, op: Op, result) -> list[str]:
        inst, x = op.arg
        problem = _card_problem(inst, x, result)
        return [problem] if problem else []

    def summary(self, op: Op, result) -> str:
        return result.verdict

    def extras(self, summaries: list[tuple[str, str]]) -> dict:
        verdicts = [verdict or "error" for _, verdict in summaries]
        counts = {v: verdicts.count(v) for v in sorted(set(verdicts))}
        return {
            "verdicts": counts,
            "undecided_frac": counts.get("ExceedsBudget", 0) / len(verdicts),
        }


class CliBundled:
    """One op is one ``python -m slicekit`` process, run to completion
    before the next starts."""

    name = "cli-bundled"
    yardstick = StartYardstick

    def distinct_ops(self) -> list[Op]:
        ops = []
        for name in BUNDLED:
            path = f"instances/{name}.json"
            ops.append(Op(f"check {name}", ("check", path, "--json")))
            ops.append(Op(f"analyze {name}", ("analyze", path)))
        for name in CLI_MATRICES:
            ops.append(Op(f"matrices {name}", ("matrices", f"instances/{name}.json")))
        for name, x, _ in CLI_COUNTS:
            ops.append(Op(f"count {name} {x}", ("count", f"instances/{name}.json", "--x", x)))
        command, name, *flags = CLI_LYAPUNOV
        ops.append(Op(f"lyapunov {name}", (command, f"instances/{name}.json", *flags)))
        return ops

    def prepare(self, seed: int, seconds: int) -> Inputs:
        from slicekit import instance

        documents = {name: bundled_text(name) for name in BUNDLED}
        for text in documents.values():
            instance.parse_instance(text)
        distinct = self.distinct_ops()
        rng = random.Random(seed)
        passes = max(1, round(CLI_OPS_PER_SECOND * seconds / len(distinct)))
        ops = []
        for _ in range(passes):
            order = list(distinct)
            rng.shuffle(order)
            ops.extend(order)
        return Inputs(ops, documents)

    def run(self, op: Op, tracer=None):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if tracer is None:
            argv = [sys.executable, "-m", "slicekit", *op.arg]
        else:
            stats_path = RUNS / "cli-child-trace.json"
            argv = [sys.executable, str(BENCH / "cli_child.py"), str(stats_path), *op.arg]
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        if tracer is not None:
            tracer.absorb(json.loads(stats_path.read_text(encoding="utf-8")))
            stats_path.unlink()
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op: Op, result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[-200:]}"]
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"output does not parse: {exc}"]
        want = {f"count {name} {x}": count for name, x, count in CLI_COUNTS}.get(op.label)
        if want is not None and not (
            isinstance(payload, dict)
            and (payload.get("verdict"), payload.get("count")) == ("Finite", want)
        ):
            return [f"expected Finite {want}, got {out.strip()!r}"]
        return []

    def summary(self, op: Op, result) -> None:
        return None

    def extras(self, summaries: list) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (AnalyzeScaled(), CountSweep(), CliBundled())}
