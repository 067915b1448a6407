"""Lattice geometry of an instance: the length-1/n integer intervals,
projection intervals of digit cubes, interval types, and the covering /
strong-separation checks.

All endpoints here are rationals with denominator n, so every containment
question is decided exactly on scaled integers.

``children`` is the one place that applies the children rule: row t of
digit matrix T_d, read by the counting tables, the digit matrices and the
grid tails, and the types of interval u, the children of (u mod n, u div n)
below proj_max.
``unique_type`` is the one place that decides whether interval u is
uniquely covered, and by which type: ``xi_types`` reads it for every u,
``graphs.psi_step`` for one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import OutOfRange
from .instance import ProblemInstance


class IntegerInterval(NamedTuple):
    """The interval [u, u+1]/n inside [proj_min, proj_max].

    ``display_label`` renumbers intervals from 0 upward (u - n*proj_min) to
    match the usual figure-style labelling; graph code keys on the raw u.
    """

    u: int
    n: int
    display_label: int

    @property
    def left(self) -> Fraction:
        return Fraction(self.u, self.n)

    @property
    def right(self) -> Fraction:
        return Fraction(self.u + 1, self.n)


class SmallCube(NamedTuple):
    """A depth-1 digit cube: its digit tuple, form value, and the exact
    projection interval (weight + [proj_min, proj_max]) / n."""

    digits: tuple[int, ...]
    weight: int
    projection: tuple[Fraction, Fraction]


class TypeAssignment(NamedTuple):
    """All (type, cube) pairs covering one integer interval.

    A cube of weight w covers interval u exactly when t = u - w lies in
    [proj_min, proj_max - 1]; t is the position of the interval inside the
    cube's projection interval.
    """

    interval: IntegerInterval
    entries: tuple[tuple[int, SmallCube], ...]


def u_range(inst: ProblemInstance) -> range:
    return range(inst.n * inst.proj_min, inst.n * inst.proj_max)


def make_interval(inst: ProblemInstance, u: int) -> IntegerInterval:
    if u not in u_range(inst):
        raise OutOfRange(f"u={u} outside [{inst.n * inst.proj_min}, {inst.n * inst.proj_max - 1}]")
    return IntegerInterval(u=u, n=inst.n, display_label=u - inst.n * inst.proj_min)


def enumerate_integer_intervals(inst: ProblemInstance) -> list[IntegerInterval]:
    """All n*span integer intervals, ascending in u."""
    return [make_interval(inst, u) for u in u_range(inst)]


def children(inst: ProblemInstance, d: int, t: int) -> list[tuple[int, int]]:
    """The children of a chain at t under digit d: (d + n*t - w, cubes of
    weight w) in [proj_min, proj_max], ascending, as weights descend."""
    lo, hi, base = inst.proj_min, inst.proj_max, d + inst.n * t
    out = []
    for w, count in inst.cube_weights.items():
        if lo <= base - w <= hi:
            out.append((base - w, count))
    return out


def interval_type_counts(inst: ProblemInstance, u: int) -> list[tuple[int, int]]:
    """(type, number of cubes realising it) for interval u, ascending type;
    empty outside the range."""
    kids = children(inst, u % inst.n, u // inst.n)
    if kids and kids[-1][0] == inst.proj_max:
        kids.pop()
    return kids


def type_assignment(inst: ProblemInstance, interval: IntegerInterval | int) -> TypeAssignment:
    """Enumerate the cubes covering one integer interval, with their types."""
    iv = interval if isinstance(interval, IntegerInterval) else make_interval(inst, interval)
    type_of = {iv.u - t: t for t, _ in interval_type_counts(inst, iv.u)}
    entries = []
    for digits in inst.iter_cubes():
        w = inst.weight(digits)
        if w in type_of:
            entries.append((type_of[w], SmallCube(digits, w, inst.projection_interval(w))))
    return TypeAssignment(interval=iv, entries=tuple(entries))


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


def xi_set(inst: ProblemInstance) -> list[IntegerInterval]:
    """Integer intervals covered by exactly one cube projection, ascending."""
    return [make_interval(inst, u) for u in xi_types(inst)]


def unique_type(inst: ProblemInstance, u: int) -> int | None:
    """The type of interval u when exactly one cube covers it, else None
    (also outside the range, where no cube covers u)."""
    tc = interval_type_counts(inst, u)
    return tc[0][0] if len(tc) == 1 and tc[0][1] == 1 else None


def xi_types(inst: ProblemInstance) -> dict[int, int]:
    """u -> its unique type, for every uniquely covered interval."""
    typed = ((u, unique_type(inst, u)) for u in u_range(inst))
    return {u: t for u, t in typed if t is not None}
