"""Lattice geometry of an instance: the length-1/n integer intervals,
interval types, and the covering / strong-separation checks.

All endpoints here are rationals with denominator n, so every containment
question is decided exactly on scaled integers.

``children`` is the one place that applies the children rule, and
``open_children`` the one place that cuts a chain's children at proj_max:
row t of digit matrix T_d is the open children of (d, t), read by the
counting tables, ``counting._path_counts``, the digit matrices and
``lyapunov_estimate``, and the
types of interval u (``interval_type_counts``) are the open children of
(u mod n, u div n).  The counting tables' closed rows, and the edges of
``counting._path_counts`` that end at remainder 0, read ``children``
uncut.
``interval_census`` lists the types of every interval of the range, and
``xi_types`` reads from it which intervals are uniquely covered, and by
which type.  The cube-by-cube type assignment of the paper is the tests'
reference for these rules.
"""

from __future__ import annotations

from .errors import TooLarge
from .instance import ProblemInstance


# Most integer intervals, n * span, whose types ``interval_census`` finds.
# Set from peaks on n=3, {0,2}^2, coefficients (-c, c + 1): just under the
# cap (65535 intervals) `dim-u1` peaks at 58 MiB and `dim-ur --r 1`,
# `witness --r 1` and `enumerate-r --max-r 1` at 198-203 MiB.  Twice the cap
# would let `dim-u1` answer at 101 MiB (131067 intervals), but also let the
# multiplicity search run up to span 39089, where its records bound first
# refuses it, and there `witness --r 1` peaked at 514 MiB.  The search takes
# the census before its vector closure, so past the cap it is refused at
# once.
_INTERVAL_CAP = 2**16


def u_range(inst: ProblemInstance) -> range:
    """Every integer interval u, the interval [u, u+1]/n, of [proj_min,
    proj_max], ascending; the report labels u by its index here,
    u - n*proj_min."""
    return range(inst.n * inst.proj_min, inst.n * inst.proj_max)


def children(inst: ProblemInstance, d: int, t: int) -> list[tuple[int, int]]:
    """The children of a chain at t under digit d: (d + n*t - w, cubes of
    weight w) in [proj_min, proj_max], ascending, as weights descend."""
    lo, hi, base = inst.proj_min, inst.proj_max, d + inst.n * t
    out = []
    for w, count in inst.cube_weights.items():
        if lo <= base - w <= hi:
            out.append((base - w, count))
    return out


def open_children(inst: ProblemInstance, kids: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``kids``, one chain's ``children``, without a child at proj_max: for
    the children of (d, t), row t of digit matrix T_d.  ``kids`` itself
    when no child sits at proj_max, else a new list."""
    return kids[:-1] if kids and kids[-1][0] == inst.proj_max else kids


def interval_type_counts(inst: ProblemInstance, u: int) -> list[tuple[int, int]]:
    """(type, number of cubes realising it) for interval u, ascending type:
    the open children of (u mod n, u div n); empty outside the range."""
    return open_children(inst, children(inst, u % inst.n, u // inst.n))


def covering_condition(inst: ProblemInstance) -> bool:
    """Do the depth-1 projection intervals cover [proj_min, proj_max]?

    Decided exactly: scaled by n the projection intervals have integer
    endpoints [w + proj_min, w + proj_max]; sort and sweep for gaps.
    """
    lo = inst.n * inst.proj_min
    hi = inst.n * inst.proj_max
    spans = sorted((w + inst.proj_min, w + inst.proj_max) for w in inst.cube_weights)
    reach = lo
    for a, b in spans:
        if a > reach:
            return False
        reach = max(reach, b)
        if reach >= hi:
            return True
    return reach >= hi


def strong_separation(inst: ProblemInstance) -> list[bool]:
    """Per factor set: no two digits at distance exactly 1.

    When this holds the depth-1 pieces of that factor are pairwise disjoint,
    and so are all deeper product cubes.
    """
    out = []
    for digits in inst.digit_sets:
        s = set(digits)
        out.append(not any(d + 1 in s for d in s))
    return out


def interval_census(inst: ProblemInstance) -> list[list[tuple[int, int]]]:
    """``interval_type_counts`` of every integer interval, ascending u.
    Raises TooLarge, before any interval is typed, when the range has more
    than _INTERVAL_CAP integer intervals."""
    if inst.n * inst.span > _INTERVAL_CAP:
        raise TooLarge(
            f"the range has {inst.n * inst.span} integer intervals, more than {_INTERVAL_CAP}"
        )
    return [interval_type_counts(inst, u) for u in u_range(inst)]


def xi_types(inst: ProblemInstance, census: list | None = None) -> dict[int, int]:
    """u -> its unique type, for every uniquely covered interval (one cube
    covers it), read from ``census``, the ``interval_census`` of inst,
    which is found here when none is given."""
    if census is None:
        census = interval_census(inst)
    return {
        u: tc[0][0]
        for u, tc in zip(u_range(inst), census)
        if len(tc) == 1 and tc[0][1] == 1
    }
