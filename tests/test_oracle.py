import random
from fractions import Fraction
from itertools import product

import pytest

import slicekit.oracle as oracle_mod
from slicekit import brute_force_cube_count, brute_force_solutions
from slicekit.errors import OutOfRange, TooLarge


def test_counts_stabilise(cantor_diff):
    assert brute_force_cube_count(cantor_diff, Fraction(1, 3), 4) == 3
    for k in range(1, 9):
        assert brute_force_cube_count(cantor_diff, Fraction(1, 2), k) == 1


def test_depth_zero(cantor_diff):
    assert brute_force_cube_count(cantor_diff, Fraction(2, 7), 0) == 1
    assert brute_force_solutions(cantor_diff, Fraction(2, 7), 0) == (
        brute_force_solutions(cantor_diff, Fraction(2, 7), 0)
    )


def test_out_of_range(cantor_diff):
    with pytest.raises(OutOfRange):
        brute_force_cube_count(cantor_diff, Fraction(9, 4), 1)


def test_solutions_for_one_third(cantor_diff):
    chains = brute_force_solutions(cantor_diff, Fraction(1, 3), 2)
    assert [c.digits for c in chains] == [
        ((0, 0), (0, 2)),
        ((0, 2), (2, 0)),
        ((2, 2), (0, 2)),
    ]
    for c in chains:
        lo, hi = c.interval
        assert lo <= Fraction(1, 3) <= hi


def test_extreme_point_single_chain(cantor_diff):
    chains = brute_force_solutions(cantor_diff, Fraction(-1), 3)
    assert len(chains) == 1
    assert chains[0].digits == (((2, 0),) * 3)


def test_gap_point_has_no_chains(no_cover):
    assert brute_force_solutions(no_cover, Fraction(3, 5), 1) == []
    assert brute_force_cube_count(no_cover, Fraction(3, 5), 1) == 0


def test_count_equals_solution_count(cantor_diff, base7_double):
    rng = random.Random(13)
    for inst in (cantor_diff, base7_double):
        for _ in range(15):
            q = rng.choice([5, 11])
            x = Fraction(inst.proj_min) + Fraction(rng.randrange(1, inst.span * q), q)
            for k in range(4):
                count = brute_force_cube_count(inst, x, k)
                assert count == len(brute_force_solutions(inst, x, k))


def test_pruning_soundness(cantor_diff):
    """Unpruned enumeration over all digit chains agrees for tiny depths."""
    x = Fraction(1, 3)
    for k in range(4):
        survivors = []
        for chain in product(list(cantor_diff.iter_cubes()), repeat=k):
            ok = True
            for depth in range(1, k + 1):
                w = 0
                for tup in chain[:depth]:
                    w = w * 3 + cantor_diff.weight(tup)
                lo = Fraction(w + cantor_diff.proj_min, 3**depth)
                hi = Fraction(w + cantor_diff.proj_max, 3**depth)
                if not lo <= x <= hi:
                    ok = False
                    break
            if ok:
                survivors.append(chain)
        assert len(survivors) == brute_force_cube_count(cantor_diff, x, k)
        assert survivors == [
            c.digits for c in brute_force_solutions(cantor_diff, x, k)
        ]


def test_chain_cap(cantor_diff, monkeypatch):
    monkeypatch.setattr(oracle_mod, "_CHAIN_CAP", 4)
    with pytest.raises(TooLarge):
        brute_force_solutions(cantor_diff, Fraction(0), 4)


def test_solutions_deeper_than_the_recursion_limit(cantor_sum):
    chains = brute_force_solutions(cantor_sum, Fraction(1, 2), 3000)
    assert len(chains) == brute_force_cube_count(cantor_sum, Fraction(1, 2), 3000) == 1
    assert len(chains[0].digits) == 3000
