import random
from fractions import Fraction

import pytest

from slicekit import (
    covering_condition,
    enumerate_integer_intervals,
    strong_separation,
)
from slicekit import lattice
from slicekit.errors import OutOfRange, TooLarge
from slicekit.instance import ProblemInstance
from slicekit.lattice import interval_type_counts, make_interval, xi_types

from helpers import projection_interval, type_assignment


def test_interval_counts(cantor_diff, cantor_double_diff):
    ivs = enumerate_integer_intervals(cantor_diff)
    assert [iv.u for iv in ivs] == [-3, -2, -1, 0, 1, 2]
    assert [iv.display_label for iv in ivs] == [0, 1, 2, 3, 4, 5]
    assert len(enumerate_integer_intervals(cantor_double_diff)) == 9


def test_interval_count_unit_span():
    inst = ProblemInstance(n=2, digit_sets=((0,),), coefficients=(1,))
    assert [iv.u for iv in enumerate_integer_intervals(inst)] == [0, 1]


def test_interval_endpoints(cantor_diff):
    iv = make_interval(cantor_diff, -3)
    assert (iv.left, iv.right) == (Fraction(-1), Fraction(-2, 3))
    with pytest.raises(OutOfRange):
        make_interval(cantor_diff, 3)


def test_covering(cantor_diff, base7_double, no_cover):
    assert covering_condition(cantor_diff)
    assert covering_condition(base7_double)
    assert not covering_condition(no_cover)


def test_covering_matches_sampling(cantor_diff, base7_double, no_cover, cantor_sum):
    # dense rational sampling agrees with the exact sweep
    for inst in (cantor_diff, base7_double, no_cover, cantor_sum):
        spans = [projection_interval(inst, w) for w in inst.cube_weights]
        lo, hi = Fraction(inst.proj_min), Fraction(inst.proj_max)
        step = Fraction(1, 7 * inst.n)
        x = lo
        sampled = True
        while x <= hi:
            if not any(a <= x <= b for a, b in spans):
                sampled = False
                break
            x += step
        assert sampled == covering_condition(inst)


def test_strong_separation_cases(cantor_diff, base7_double):
    assert strong_separation(cantor_diff) == [True, True]
    assert strong_separation(base7_double) == [False, False]
    inst = ProblemInstance(n=2, digit_sets=((0, 1),), coefficients=(1,))
    assert strong_separation(inst) == [False]


def test_type_assignment_unique(cantor_diff):
    ta = type_assignment(cantor_diff, -3)
    assert [(t, c.digits) for t, c in ta.entries] == [(-1, (2, 0))]


def test_type_assignment_double_cover(cantor_diff):
    ta = type_assignment(cantor_diff, -1)
    assert [(t, c.digits) for t, c in ta.entries] == [(-1, (0, 0)), (-1, (2, 2))]


def test_type_assignment_empty(no_cover):
    # interval [1/2, 3/4] sits in a gap between projections
    assert type_assignment(no_cover, 2).entries == ()


def test_xi_sets(cantor_diff, cantor_sum, base7_double, base6_mixed):
    def xi_labels(inst):
        return [make_interval(inst, u).display_label for u in xi_types(inst)]

    assert list(xi_types(cantor_diff)) == [-3, -2, 1, 2]
    assert xi_labels(cantor_diff) == [0, 1, 4, 5]
    assert xi_labels(cantor_sum) == [0, 1, 4, 5]
    assert len(xi_types(base7_double)) == 7
    assert len(xi_types(base6_mixed)) == 8


def test_xi_types_refuses_past_the_interval_cap(cantor_diff, monkeypatch):
    """``xi_types`` refuses a range of more than _INTERVAL_CAP integer
    intervals, n * span, with TooLarge before it types any; cantor_diff
    has 6, and interval_type_counts is never asked past the cap."""
    monkeypatch.setattr(lattice, "_INTERVAL_CAP", 6)
    assert xi_types(cantor_diff) == {-3: -1, -2: 0, 1: -1, 2: 0}
    monkeypatch.setattr(lattice, "_INTERVAL_CAP", 5)
    monkeypatch.setattr(lattice, "interval_type_counts", None)  # never called
    with pytest.raises(TooLarge, match="the range has 6 integer intervals, more than 5"):
        xi_types(cantor_diff)


def test_containment_type_equivalence(cantor_diff, base7_double, no_cover):
    # interval inside a cube's projection iff the offset u - weight is a type
    rng = random.Random(7)
    for inst in (cantor_diff, base7_double, no_cover):
        us = [iv.u for iv in enumerate_integer_intervals(inst)]
        for _ in range(50):
            u = rng.choice(us)
            digits = tuple(rng.choice(s) for s in inst.digit_sets)
            w = inst.weight(digits)
            lo, hi = projection_interval(inst, w)
            contained = lo <= Fraction(u, inst.n) and Fraction(u + 1, inst.n) <= hi
            assert contained == (inst.proj_min <= u - w <= inst.proj_max - 1)


def test_type_counts_sum(cantor_diff):
    for u in range(-3, 3):
        total = sum(c for _, c in interval_type_counts(cantor_diff, u))
        assert total == len(type_assignment(cantor_diff, u).entries)
