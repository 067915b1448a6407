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
    STATUS_ACHIEVABLE,
    STATUS_COUNTABLE,
    Analysis,
    RSearchResult,
    dim_ur,
    enumerate_achievable_r,
    measure_ur,
    witness_ur,
)
from .counting import exact_card
from .errors import HypothesisViolated, InvalidDocument
from .instance import ProblemInstance
from .lattice import enumerate_integer_intervals, interval_type_counts
from .spectral import RadiusResult, irreducible


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


def _scc_json(decomposition, key) -> dict:
    return {
        "components": [[key(v) for v in comp] for comp in decomposition.components],
        "radii": [radius_json(rr) for rr in decomposition.radii],
        "order": [
            [i, j] for i, reach in enumerate(decomposition.reach) for j in sorted(reach)
        ],
    }


def _members_key(members: tuple[int, ...]) -> str:
    return ",".join(str(u) for u in members)


def build_report(
    inst: ProblemInstance, max_r: int = 6, budget: int = 4096
) -> dict:
    started = time.monotonic()
    # the search runs first so that the whole report reads its context
    try:
        search = enumerate_achievable_r(inst, max_r=max_r, budget=budget)
    except HypothesisViolated as exc:
        search, refusal = None, str(exc)
    context = search.analysis if search else Analysis(inst)
    xi = context.xi
    u1 = context.u1
    intervals = [
        {
            "u": iv.u,
            "label": iv.display_label,
            "types": [[t, c] for t, c in interval_type_counts(inst, iv.u)],
        }
        for iv in enumerate_integer_intervals(inst)
    ]
    data: dict = {
        "instance": {
            "n": inst.n,
            "digit_sets": [list(s) for s in inst.digit_sets],
            "coefficients": list(inst.coefficients),
        },
        "bounds": {
            "proj_min": inst.proj_min,
            "proj_max": inst.proj_max,
            "norm1": inst.span,
        },
        "covering": context.covering,
        "ssc": list(context.ssc),
        "integer_intervals": intervals,
        "xi": list(xi.us),
        "M": {
            "index": list(xi.us),
            "rows": [list(r) for r in xi.matrix],
            "rho": radius_json(u1.rho),
            "irreducible": irreducible(xi.matrix),
        },
        "T": [
            {
                "digit": m.digit,
                "index_min": m.index_min,
                "rows": [list(r) for r in m.entries],
            }
            for m in context.matrices
        ],
        "scc_xi": _scc_json(context.xi_scc, key=lambda u: u),
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
    data["scc_subsets"] = dict(
        _scc_json(context.subset_graph.scc, key=_members_key), mode="full"
    )
    if search is None:
        data["r_search"] = {"status": "HypothesisViolated", "reason": refusal}
        data["ur"] = {}
    else:
        data["r_search"] = _search_json(inst, search)
        data["ur"] = _ur_json(inst, search)
    elapsed = time.monotonic() - started
    return {
        "data": data,
        "meta": {"version": __version__, "elapsed_seconds": elapsed},
    }


def _search_json(inst: ProblemInstance, search: RSearchResult) -> dict:
    statuses = {}
    for r, st in sorted(search.statuses.items()):
        entry: dict = {"status": st.status}
        if st.witness is not None:
            w = st.witness
            entry["witness"] = {
                "vector": list(w.vector),
                "integer_part": w.integer_part,
                "word": list(w.word),
                "support": list(w.support),
                "residue": w.residue,
                "subset": list(w.subset),
            }
        if st.countable_example is not None:
            entry["countable_example"] = format_rational(st.countable_example)
        statuses[str(r)] = entry
    return {
        "max_r": search.max_r,
        "achievable": search.achievable(),
        "vectors": [
            {
                "vector": list(rv.vector),
                "norm": rv.norm,
                "integer_part": rv.integer_part,
                "word": list(rv.word),
            }
            for rv in search.vectors
        ],
        "statuses": statuses,
    }


def _ur_json(inst: ProblemInstance, search: RSearchResult) -> dict:
    out = {}
    for r, st in sorted(search.statuses.items()):
        if st.status != STATUS_ACHIEVABLE:
            if st.status == STATUS_COUNTABLE:
                rep = dim_ur(inst, r, search=search)
                out[str(r)] = {
                    "dim": {"decimal": decimal(rep.dim)},
                    "countable": True,
                    "measure_class": None,
                }
            continue
        rep = measure_ur(inst, r, search=search)
        witness = witness_ur(inst, r, search=search)
        value = witness.value(inst.n)
        verify = exact_card(inst, value)
        out[str(r)] = {
            "dim": {
                "decimal": decimal(rep.dim),
                "candidates": [decimal(c) for c in rep.candidates],
            },
            "countable": rep.countable_flag,
            "measure_class": rep.measure_class,
            "witness": {
                "integer_part": witness.integer_part,
                "preperiod": list(witness.preperiod),
                "period": list(witness.period),
                "value": format_rational(value),
                "verified": verify.verdict == "Finite" and verify.count == r,
            },
        }
    return out


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def data_section(report_text: str) -> dict:
    """Parse a serialized report and drop the meta key (golden comparisons)."""
    doc = json.loads(report_text)
    doc.pop("meta", None)
    return doc
