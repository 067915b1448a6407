"""Machine-readable report assembly.

Reports are reproducible: given the same instance and flags the data section
is byte-identical (keys sorted, rationals as exact "p/q" strings, reals as
decimal strings, no bare floats).  Wall-clock timing and the tool version
live in a separate "meta" key that golden comparisons drop.

``build_report`` and ``matrices_json`` each read one ``Analysis`` context,
and refuse an instance whose printed matrices T and M would pass
_MATRIX_CAP entries before they search or form either matrix.
"""

from __future__ import annotations

import json
import re
import time
from fractions import Fraction

from . import __version__
from .analysis import (
    STATUS_ACHIEVABLE,
    Analysis,
    RSearchResult,
    WitnessExpansion,
    dim_ur,
    witness_ur,
)
from .errors import HypothesisViolated, InvalidDocument, NoCertifiedWitness, TooLarge
from .graphs import component_matrix, reachable
from .instance import ProblemInstance
from .lattice import u_range
from .spectral import RadiusResult, transition_matrices

# Most entries of the digit matrices T and the restricted graph's matrix M
# together that `analyze` and `matrices` print: n=3 at span 601 prints about
# 2.5 million, and at span 2001 T alone has 12 million.
_MATRIX_CAP = 2**22
# The "p/q" and "k" forms that parse_rational accepts; int() alone would also
# take underscores, inner spaces, non-ASCII digits and a sign on q.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Accepts exactly the "p/q" and "k" text forms, after the outer
    whitespace: ASCII digits, a sign only before p; no decimals, no
    underscores, no inner spaces."""
    text = text.strip()
    try:
        if _RATIONAL.fullmatch(text):
            return Fraction(text)
    except ZeroDivisionError:
        pass
    raise InvalidDocument(f"not a rational in p/q form: {text!r}")


def radius_json(rr: RadiusResult) -> dict:
    return {
        "lower": format_rational(rr.lower),
        "upper": format_rational(rr.upper),
        "decimal": repr(rr.estimate),
    }


def decimal(value: float) -> str:
    return repr(value)


def _scc_json(graph, blocks, names) -> dict:
    """The decomposition of ``graph``, with its ``blocks``' radii, vertex v
    written as ``names[v]``, and each component's reachable components,
    searched from its first vertex."""
    decomposition = graph.scc
    comp_of = decomposition.comp_of
    # single-vertex components share two RadiusResult objects, so each
    # distinct object is formatted once, and its entries share one dict
    # (ids stay valid: ``blocks`` holds every radius)
    distinct = {id(rr): rr for rr, _ in blocks}
    formatted = {i: radius_json(rr) for i, rr in distinct.items()}
    return {
        "components": [[names[v] for v in comp] for comp in decomposition.components],
        "radii": [formatted[id(rr)] for rr, _ in blocks],
        "order": [
            [i, j]
            for i, comp in enumerate(decomposition.components)
            for j in sorted({comp_of[v] for v in reachable(graph.succ, comp[:1])})
        ],
    }


def checks_json(inst: ProblemInstance, covering: bool, ssc) -> dict:
    """The bounds of the instance and its covering and per-factor
    separation flags."""
    return {
        "bounds": {
            "proj_min": inst.proj_min,
            "proj_max": inst.proj_max,
            "norm1": inst.span,
        },
        "covering": covering,
        "ssc": list(ssc),
    }


def witness_json(witness: WitnessExpansion, n: int) -> dict:
    """An eventually periodic expansion and the base-n point it writes."""
    return {
        "integer_part": witness.integer_part,
        "preperiod": list(witness.preperiod),
        "period": list(witness.period),
        "value": format_rational(witness.value(n)),
    }


def _check_printable(context: Analysis) -> None:
    """Refuse with TooLarge an instance whose T (n * span**2 entries) and
    M (|xi|**2 entries) hold more than _MATRIX_CAP entries together; |xi|
    is read from the context's xi types, and only once T fits."""
    inst = context.inst
    entries = inst.n * inst.span**2
    if entries <= _MATRIX_CAP:
        entries += len(context.types) ** 2
    if entries > _MATRIX_CAP:
        raise TooLarge(f"the matrices T and M hold more than {_MATRIX_CAP} entries")


def _matrices(context: Analysis) -> dict:
    """The report's ``xi``, ``M`` and ``T`` sections: the restricted
    graph's index, its 0-1 matrix M with M's radius, and the digit
    matrices T; the one place the printed matrices are formed."""
    xi = context.xi
    us = [u for (u,) in xi.vertices]
    return {
        "xi": us,
        "M": {
            "index": us,
            "rows": [list(r) for r in component_matrix(xi.succ, range(len(us)))],
            "rho": radius_json(context.u1.rho),
            # one strongly connected component, with a cycle through it
            "irreducible": len(xi.scc.components) == 1 and 0 in xi.scc.cycles[0],
        },
        "T": [
            {
                "digit": m.digit,
                "index_min": m.index_min,
                "rows": [list(r) for r in m.entries],
            }
            for m in transition_matrices(context.inst)
        ],
    }


def matrices_json(inst: ProblemInstance) -> dict:
    """The ``matrices`` payload: the report's ``xi``, ``M`` and ``T``
    sections, re-keyed.  Raises TooLarge past _MATRIX_CAP, as
    ``build_report`` does."""
    context = Analysis(inst)
    _check_printable(context)
    sections = _matrices(context)
    return {
        "xi": sections["xi"],
        "M": sections["M"]["rows"],
        "rho": sections["M"]["rho"],
        "T": [{"digit": m["digit"], "rows": m["rows"]} for m in sections["T"]],
    }


def build_report(inst: ProblemInstance, max_r: int = 6) -> dict:
    """The ``analyze`` report of ``inst``, searched up to ``max_r``, every
    section read from one ``Analysis`` context.  Raises TooLarge, before
    the search, when T and M are past _MATRIX_CAP."""
    started = time.monotonic()
    context = Analysis(inst)
    _check_printable(context)
    try:
        search = context.search(max_r)
    except HypothesisViolated as exc:
        search, refusal = None, str(exc)
    sections = _matrices(context)
    u1 = context.u1
    intervals = [
        {"u": u, "label": label, "types": [[t, c] for t, c in types]}
        for label, (u, types) in enumerate(zip(u_range(inst), context.census))
    ]
    data: dict = {
        "instance": {
            "n": inst.n,
            "digit_sets": [list(s) for s in inst.digit_sets],
            "coefficients": list(inst.coefficients),
        },
        **checks_json(inst, context.covering, context.ssc),
        "integer_intervals": intervals,
        **sections,
        "scc_xi": _scc_json(context.xi, context.xi_blocks, sections["xi"]),
        "u1": {
            "dim": {
                "decimal": decimal(u1.s),
                "lower": decimal(u1.s_lower),
                "upper": decimal(u1.s_upper),
            },
            "dim_exact": u1.dim_exact,
            "s_positive": u1.s_positive,
            "measure_class": u1.measure_class,
            "notes": list(u1.notes),
        },
    }
    if search is None:
        data["scc_subsets"] = {}
        data["r_search"] = {"status": "HypothesisViolated", "reason": refusal}
        data["ur"] = {}
    else:
        graph = search.graph
        labels = [",".join(map(str, members)) for members in graph.vertices]
        blocks = context.blocks(graph.succ, graph.scc.components)
        data["scc_subsets"] = _scc_json(graph, blocks, labels)
        data["r_search"] = _search_json(search)
        data["ur"] = _ur_json(inst, search)
    elapsed = time.monotonic() - started
    return {
        "data": data,
        "meta": {"version": __version__, "elapsed_seconds": elapsed},
    }


def _search_json(search: RSearchResult) -> dict:
    # every r in 1..max_r, with no vector: the witnesses carry their own
    inst = search.analysis.inst
    statuses = {}
    for r in range(1, search.max_r + 1):
        st = search.status(r)
        entry: dict = {"status": st.status}
        if st.witness is not None:
            (counts, _, i, word, support), residue, subset, _ = st.witness
            at = dict(zip(support, counts))
            entry["witness"] = {
                "vector": [at.get(p, 0) for p in range(inst.proj_min, inst.proj_max)],
                "integer_part": i,
                "word": list(word),
                "support": list(support),
                "residue": residue,
                "subset": list(subset),
            }
        if st.countable_example is not None:
            entry["countable_example"] = format_rational(st.countable_example)
        statuses[str(r)] = entry
    return {
        "max_r": search.max_r,
        "achievable": search.achievable(),
        "statuses": statuses,
    }


def _ur_json(inst: ProblemInstance, search: RSearchResult) -> dict:
    """One entry per stored status, Achievable or OnlyOnCountableSet; only
    an achievable r has candidates and a witness."""
    out = {}
    for r, st in search.statuses.items():
        rep = dim_ur(search, r)
        entry = out[str(r)] = {
            "dim": {"decimal": decimal(rep.dim)},
            "countable": rep.countable_flag,
            "measure_class": rep.measure_class,
        }
        if st.status != STATUS_ACHIEVABLE:
            continue
        entry["dim"]["candidates"] = [decimal(c) for c in rep.candidates]
        try:
            witness = witness_ur(search, r)
        except NoCertifiedWitness:
            continue  # the entry carries no witness
        # witness_ur returns only points exact_card counts as Finite r
        entry["witness"] = {**witness_json(witness, inst.n), "verified": True}
    return out


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
