"""Machine-readable report assembly.

Reports are reproducible: given the same instance and flags the data section
is byte-identical (keys sorted, rationals as exact "p/q" strings, reals as
decimal strings, no bare floats).  Wall-clock timing and the tool version
live in a separate "meta" key that golden comparisons drop.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from . import __version__
from .analysis import (
    STATUS_COUNTABLE,
    Analysis,
    RSearchResult,
    WitnessExpansion,
    dim_ur,
    enumerate_achievable_r,
    measure_ur,
    witness_ur,
)
from .errors import HypothesisViolated, InvalidDocument, NoCertifiedWitness
from .graphs import component_matrix
from .instance import ProblemInstance
from .lattice import enumerate_integer_intervals
from .spectral import RadiusResult, transition_matrices


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Accepts exactly the "p/q" and "k" text forms; no decimals."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidDocument(f"not a rational in p/q form: {text!r}") from exc


def radius_json(rr: RadiusResult) -> dict:
    return {
        "lower": format_rational(rr.lower),
        "upper": format_rational(rr.upper),
        "decimal": repr(rr.estimate),
    }


def decimal(value: float) -> str:
    return repr(value)


def _scc_json(decomposition, blocks, names) -> dict:
    """The decomposition, with its ``blocks``' radii, and vertex v written
    as ``names[v]``."""
    # single-vertex components share two RadiusResult objects, so each
    # distinct object is formatted once, and its entries share one dict
    # (ids stay valid: ``blocks`` holds every radius)
    distinct = {id(rr): rr for rr, _ in blocks}
    formatted = {i: radius_json(rr) for i, rr in distinct.items()}
    return {
        "components": [[names[v] for v in comp] for comp in decomposition.components],
        "radii": [formatted[id(rr)] for rr, _ in blocks],
        "order": [
            [i, j] for i, reach in enumerate(decomposition.reach) for j in sorted(reach)
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


def build_report(inst: ProblemInstance, max_r: int = 6) -> dict:
    started = time.monotonic()
    # the search runs first so that the whole report reads its context
    try:
        search = enumerate_achievable_r(inst, max_r=max_r)
    except HypothesisViolated as exc:
        search, refusal = None, str(exc)
    context = search.analysis if search else Analysis(inst)
    xi = context.xi
    us = [u for (u,) in xi.vertices]
    u1 = context.u1
    intervals = [
        {"u": iv.u, "label": iv.display_label, "types": [[t, c] for t, c in types]}
        for iv, types in zip(enumerate_integer_intervals(inst), context.census)
    ]
    data: dict = {
        "instance": {
            "n": inst.n,
            "digit_sets": [list(s) for s in inst.digit_sets],
            "coefficients": list(inst.coefficients),
        },
        **checks_json(inst, context.covering, context.ssc),
        "integer_intervals": intervals,
        "xi": us,
        "M": {
            "index": us,
            "rows": [list(r) for r in component_matrix(xi.succ, range(len(us)))],
            "rho": radius_json(u1.rho),
            # one strongly connected component, with a cycle through it
            "irreducible": len(xi.scc.components) == 1 and 0 in xi.scc.cycling,
        },
        "T": [
            {
                "digit": m.digit,
                "index_min": m.index_min,
                "rows": [list(r) for r in m.entries],
            }
            for m in transition_matrices(inst)
        ],
        "scc_xi": _scc_json(xi.scc, context.xi_blocks, us),
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
        data["scc_subsets"] = _scc_json(graph.scc, blocks, labels)
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
            w, rv = st.witness, st.witness.vector
            counts = dict(zip(rv.support, rv.counts))
            entry["witness"] = {
                "vector": [counts.get(p, 0) for p in range(inst.proj_min, inst.proj_max)],
                "integer_part": rv.integer_part,
                "word": list(rv.word),
                "support": list(rv.support),
                "residue": w.residue,
                "subset": list(w.subset),
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
    """One entry per stored status, Achievable or OnlyOnCountableSet."""
    out = {}
    for r, st in search.statuses.items():
        if st.status == STATUS_COUNTABLE:
            rep = dim_ur(search, r)
            out[str(r)] = {
                "dim": {"decimal": decimal(rep.dim)},
                "countable": True,
                "measure_class": None,
            }
            continue
        rep = measure_ur(search, r)
        out[str(r)] = {
            "dim": {
                "decimal": decimal(rep.dim),
                "candidates": [decimal(c) for c in rep.candidates],
            },
            "countable": rep.countable_flag,
            "measure_class": rep.measure_class,
        }
        try:
            witness = witness_ur(search, r)
        except NoCertifiedWitness:
            continue  # the entry carries no witness
        # witness_ur returns only points exact_card counts as Finite r
        out[str(r)]["witness"] = {**witness_json(witness, inst.n), "verified": True}
    return out


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
