"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from slicekit import (
    brute_force_cube_count,
    brute_force_solutions,
    covering_condition,
    dim_u1,
    enumerate_achievable_r,
    exact_card,
    lyapunov_estimate,
    measure_ur,
    spectral_radius,
    strong_separation,
    transition_matrices,
    witness_ur,
)
from slicekit.cli import main

from helpers import data_section, dense_cube_count_vector, restricted

FIXTURES = Path(__file__).resolve().parent.parent / "instances"
TOL = 1e-9

GOLDEN_M_CANTOR = [
    [1, 1, 0, 0],
    [0, 0, 1, 1],
    [1, 1, 0, 0],
    [0, 0, 1, 1],
]

GOLDEN_M_BASE7 = [
    [1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
    [1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 1],
]

GOLDEN_M_BASE6 = [
    [1, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 1, 1],
    [1, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 1, 1],
    [1, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 1, 1],
    [1, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 1, 1],
]

GOLDEN_T_DOUBLE_DIFF = [
    [[1, 0, 0], [0, 1, 0], [1, 0, 1]],
    [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
    [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
]

GOLDEN_T_BASE6 = [
    [[1, 0], [1, 2]],
    [[0, 1], [1, 1]],
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[1, 0], [1, 1]],
    [[2, 1], [0, 1]],
]


def same_up_to_relabelling(a, b) -> bool:
    """Is b = a with rows/columns simultaneously permuted?  Golden
    matrices may record the vertices in a different order."""
    size = len(a)
    if len(b) != size:
        return False
    row_a = [sum(r) for r in a]
    col_a = [sum(c) for c in zip(*a)]
    row_b = [sum(r) for r in b]
    col_b = [sum(c) for c in zip(*b)]
    candidates = [
        [j for j in range(size) if row_a[j] == row_b[i] and col_a[j] == col_b[i]]
        for i in range(size)
    ]

    assignment = []
    used = set()

    def backtrack(i):
        if i == size:
            return True
        for j in candidates[i]:
            if j in used:
                continue
            ok = all(
                b[p][i] == a[assignment[p]][j] and b[i][p] == a[j][assignment[p]]
                for p in range(i)
            )
            if ok and b[i][i] == a[j][j]:
                assignment.append(j)
                used.add(j)
                if backtrack(i + 1):
                    return True
                assignment.pop()
                used.discard(j)
        return False

    return backtrack(0)


def _random_rationals(inst, count, seed):
    rng = random.Random(seed)
    primes = [p for p in (5, 7, 11, 13, 17, 19, 23) if inst.n % p != 0]
    out = []
    while len(out) < count:
        q = rng.choice(primes)
        k = rng.randrange(1, inst.span * q)
        if k % q == 0:
            continue
        out.append(Fraction(inst.proj_min) + Fraction(k, q))
    return out


def test_criterion_1(cantor_diff):
    _, us, matrix = restricted(cantor_diff)
    assert us == [-3, -2, 1, 2]
    assert [list(r) for r in matrix] == GOLDEN_M_CANTOR
    rr = spectral_radius(matrix)
    assert rr.contains(2) and rr.width <= Fraction(1, 10**9)
    rep = dim_u1(cantor_diff)
    assert abs(rep.s - math.log(2) / math.log(3)) <= TOL
    assert rep.measure_class == "PositiveFinite"
    print("ACCEPTANCE 1: PASS - difference set: xi, M, rho=2, dim, measure")


def test_criterion_2(cantor_sum):
    _, _, matrix = restricted(cantor_sum)
    assert [list(r) for r in matrix] == GOLDEN_M_CANTOR
    rr = spectral_radius(matrix)
    assert rr.contains(2) and abs(rr.estimate - 2) <= TOL
    print("ACCEPTANCE 2: PASS - sum form reuses the same transition matrix")


def test_criterion_3(base7_double):
    assert covering_condition(base7_double)
    assert strong_separation(base7_double) == [False, False]
    xg, us, matrix = restricted(base7_double)
    assert len(us) == 7
    mine = [list(r) for r in matrix]
    assert same_up_to_relabelling(mine, GOLDEN_M_BASE7)
    rr = spectral_radius(matrix)
    golden = (3 + math.sqrt(5)) / 2
    assert abs(rr.estimate - golden) <= TOL
    rep = dim_u1(base7_double)
    assert abs(rep.s - math.log(golden) / math.log(7)) <= TOL
    assert len(xg.scc.components) > 1  # M is reducible
    print("ACCEPTANCE 3: PASS - base-7 doubled set: matrix, golden-ratio radius, dim")


def test_criterion_4(base6_mixed):
    _, us, matrix = restricted(base6_mixed)
    assert len(us) == 8
    mine = [list(r) for r in matrix]
    assert same_up_to_relabelling(mine, GOLDEN_M_BASE6)
    rr = spectral_radius(matrix)
    assert rr.contains(4) and abs(rr.estimate - 4) <= TOL
    rep = dim_u1(base6_mixed)
    assert abs(rep.s - math.log(4) / math.log(6)) <= TOL
    assert rep.measure_class == "PositiveFinite"
    assert rep.s > math.log(3) / math.log(6) + TOL
    print("ACCEPTANCE 4: PASS - base-6 mixed sets: matrix, rho=4, dim above factors")


def test_criterion_5(cantor_double_diff, base6_mixed):
    got5 = [[list(r) for r in m.entries] for m in transition_matrices(cantor_double_diff)]
    assert got5 == GOLDEN_T_DOUBLE_DIFF
    got6 = [[list(r) for r in m.entries] for m in transition_matrices(base6_mixed)]
    assert got6 == GOLDEN_T_BASE6
    print("ACCEPTANCE 5: PASS - digit count matrices reproduced entry for entry")


def test_criterion_6(cantor_diff):
    res = exact_card(cantor_diff, Fraction(1, 3))
    assert (res.verdict, res.count) == ("Finite", 3)
    for k in range(2, 9):
        assert brute_force_cube_count(cantor_diff, Fraction(1, 3), k) == 3
    chains = brute_force_solutions(cantor_diff, Fraction(1, 3), 2)
    assert [c.digits for c in chains] == [
        ((0, 0), (0, 2)),
        ((0, 2), (2, 0)),
        ((2, 2), (0, 2)),
    ]
    print("ACCEPTANCE 6: PASS - 1/3 has exactly three representations, certified")


def test_criterion_7(cantor_diff, cantor_sum, base7_double, base6_mixed):
    for idx, inst in enumerate((cantor_diff, cantor_sum, base7_double, base6_mixed)):
        assert covering_condition(inst)
        for x in _random_rationals(inst, 100, seed=1000 + idx):
            for k in range(1, 8):
                assert sum(dense_cube_count_vector(inst, x, k)) == brute_force_cube_count(
                    inst, x, k
                ), (inst.n, x, k)
    print("ACCEPTANCE 7: PASS - matrix products equal brute-force counts (4x100 points)")


def test_criterion_8(cantor_diff):
    search = enumerate_achievable_r(cantor_diff, 6)
    assert search.achievable() == [1, 2, 4]
    assert search.status(3).status == "OnlyOnCountableSet"
    s = math.log(2) / math.log(3)
    for r in (2, 4):
        rep = measure_ur(search, r)
        assert abs(rep.dim - s) <= TOL
        if r == 2:
            assert rep.measure_class == "Infinite"
        w = witness_ur(search, r)
        res = exact_card(cantor_diff, w.value(cantor_diff.n))
        assert (res.verdict, res.count) == ("Finite", r)
    print("ACCEPTANCE 8: PASS - multiplicity search, dims, measure, witnesses")


def test_criterion_9(no_cover):
    assert not covering_condition(no_cover)
    x = Fraction(3, 5)
    before = brute_force_cube_count(no_cover, x, 0)
    after = brute_force_cube_count(no_cover, x, 1)
    assert before == 1 and after == 0 and after < before
    print("ACCEPTANCE 9: PASS - covering fails and cube counts can drop")


def test_criterion_10(cantor_diff, cantor_sum, base7_double, base6_mixed):
    for idx, inst in enumerate((cantor_diff, cantor_sum, base7_double, base6_mixed)):
        for x in _random_rationals(inst, 100, seed=2000 + idx):
            counts = [brute_force_cube_count(inst, x, k) for k in range(8)]
            assert all(a <= b for a, b in zip(counts, counts[1:])), (inst.n, x)
    print("ACCEPTANCE 10: PASS - counts nondecreasing in depth under covering")


def test_criterion_11(cantor_diff, full_interval):
    est0, err0 = lyapunov_estimate(full_interval, samples=500, depth=100, seed=9)
    assert est0 == 0.0
    a = lyapunov_estimate(cantor_diff, samples=10_000, depth=1000, seed=1)
    b = lyapunov_estimate(cantor_diff, samples=10_000, depth=1000, seed=1)
    assert a == b
    c = lyapunov_estimate(cantor_diff, samples=10_000, depth=1000, seed=2)
    assert 0.0 < a[0] < 1.0
    assert abs(a[0] - c[0]) <= 0.01
    print(
        "ACCEPTANCE 11: PASS - deterministic, zero on the trivial instance, "
        f"seed-stable ({a[0]:.4f} vs {c[0]:.4f})"
    )


def test_criterion_12(tmp_path):
    for name in (
        "cantor_diff",
        "cantor_sum",
        "base7_double",
        "base6_mixed",
        "cantor_double_diff",
        "no_cover",
        "full_interval",
    ):
        texts = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}.json"
            code = main(
                ["analyze", str(FIXTURES / f"{name}.json"), "--out", str(out)]
            )
            assert code == 0
            texts.append(out.read_text())
        assert data_section(texts[0]) == data_section(texts[1]), name
        body = json.dumps(data_section(texts[0]), sort_keys=True)
        body2 = json.dumps(data_section(texts[1]), sort_keys=True)
        assert body == body2
    print("ACCEPTANCE 12: PASS - analyze reports byte-identical outside meta")
