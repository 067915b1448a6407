import random
from fractions import Fraction

import numpy as np

from slicekit import (
    build_xi_graph,
    char_poly,
    irreducible,
    radii_equal,
    scc,
    spectral_radius,
    transition_matrices,
)
from slicekit.graphs import component_matrix
from slicekit.spectral import enclosed_radii_equal, max_radius
from slicekit.lattice import type_assignment

GOLDEN_T_CANTOR_DIFF = [
    ((1, 0), (0, 2)),
    ((0, 1), (1, 0)),
    ((2, 0), (0, 1)),
]

GOLDEN_T_DOUBLE_DIFF = [
    ((1, 0, 0), (0, 1, 0), (1, 0, 1)),
    ((0, 1, 0), (1, 0, 1), (0, 1, 0)),
    ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
]

GOLDEN_T_BASE6 = [
    ((1, 0), (1, 2)),
    ((0, 1), (1, 1)),
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((1, 0), (1, 1)),
    ((2, 1), (0, 1)),
]


def test_transition_matrices_cantor_diff(cantor_diff):
    assert [m.entries for m in transition_matrices(cantor_diff)] == GOLDEN_T_CANTOR_DIFF


def test_transition_matrices_double_diff(cantor_double_diff):
    assert [m.entries for m in transition_matrices(cantor_double_diff)] == GOLDEN_T_DOUBLE_DIFF


def test_transition_matrices_base6(base6_mixed):
    assert [m.entries for m in transition_matrices(base6_mixed)] == GOLDEN_T_BASE6


def test_row_sums_match_type_assignments(cantor_diff, base7_double):
    for inst in (cantor_diff, base7_double):
        for mat in transition_matrices(inst):
            for u in range(inst.proj_min, inst.proj_max):
                row = mat.entries[u - inst.proj_min]
                interval = inst.n * u + mat.digit
                assert sum(row) == len(type_assignment(inst, interval).entries)


def test_radius_exact_integer(cantor_diff):
    rr = spectral_radius(build_xi_graph(cantor_diff).matrix)
    assert rr.contains(2)
    assert rr.width <= Fraction(1, 10**9)


def test_radius_irrational(base7_double):
    rr = spectral_radius(build_xi_graph(base7_double).matrix)
    golden = (3 + 5**0.5) / 2
    assert abs(rr.estimate - golden) <= 1e-9
    assert rr.width <= Fraction(1, 10**9) * 2


def test_radius_zero_matrix():
    rr = spectral_radius([[0, 0], [0, 0]])
    assert (rr.lower, rr.upper, rr.estimate) == (0, 0, 0.0)


def test_radius_periodic_block():
    # a bare 2-cycle: plain ratio bounds would oscillate without the shift
    rr = spectral_radius([[0, 2], [1, 0]])
    assert abs(rr.estimate - 2**0.5) <= 1e-9


def test_radius_against_numpy():
    rng = random.Random(11)
    for _ in range(25):
        size = rng.randint(1, 6)
        mat = [[rng.choice([0, 0, 1, 2]) for _ in range(size)] for _ in range(size)]
        rr = spectral_radius(mat)
        rho = max(abs(v) for v in np.linalg.eigvals(np.array(mat, dtype=float)))
        assert float(rr.lower) - 1e-8 <= rho <= float(rr.upper) + 1e-8


def test_radius_permutation_invariant():
    rng = random.Random(3)
    for _ in range(10):
        size = rng.randint(2, 6)
        mat = [[rng.choice([0, 1, 1, 3]) for _ in range(size)] for _ in range(size)]
        perm = list(range(size))
        rng.shuffle(perm)
        permuted = [[mat[perm[i]][perm[j]] for j in range(size)] for i in range(size)]
        a = spectral_radius(mat)
        b = spectral_radius(permuted)
        assert abs(a.estimate - b.estimate) <= 2e-9


def test_irreducible(cantor_diff, base7_double):
    assert irreducible(build_xi_graph(cantor_diff).matrix)
    assert not irreducible(build_xi_graph(base7_double).matrix)
    assert not irreducible([[1, 0], [0, 1]])
    assert not irreducible([[0]])
    assert irreducible([[1]])


def test_char_poly_matches_numpy():
    rng = random.Random(5)
    for _ in range(20):
        size = rng.randint(1, 5)
        mat = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        coeffs = char_poly(mat)
        ref = np.poly(np.array(mat, dtype=float))  # high-to-low
        assert len(coeffs) == size + 1
        for got, want in zip(reversed(coeffs), ref):
            assert abs(got - want) < 1e-6


def test_radii_equal_exact_cases():
    eq, verdict = radii_equal([[1, 1], [1, 1]], [[2]])
    assert eq and verdict == "exact"
    eq, verdict = radii_equal([[2]], [[3]])
    assert not eq and verdict == "exact"
    # golden-ratio block vs the full matrix containing it
    a = [[1, 1], [1, 0]]
    b = [[1, 1, 0], [1, 0, 0], [1, 1, 0]]
    eq, verdict = radii_equal(a, b)
    assert eq and verdict == "exact"
    eq, _ = radii_equal([[1, 1], [1, 0]], [[1, 1], [1, 1]])
    assert not eq


def test_enclosed_radii_equal_reuses_certified_radii(base7_double, base6_mixed, cantor_diff):
    """The restricted graph's component radii and their fold are the
    enclosures spectral_radius certifies, so deciding from them gives what
    radii_equal gives (the U1 measure class reads them this way)."""
    for inst in (base7_double, base6_mixed, cantor_diff):
        xi = build_xi_graph(inst)
        adjacency = xi.adjacency()
        decomposition = scc(adjacency)
        rho = max_radius(decomposition.radii)
        assert rho == spectral_radius(xi.matrix)
        for comp, rr in zip(decomposition.components, decomposition.radii):
            block = component_matrix(adjacency, comp)
            assert rr == spectral_radius(block)
            decided = enclosed_radii_equal(rr, rho, block, xi.matrix)
            assert decided == radii_equal(block, xi.matrix)


def test_product_norms_nondecreasing_under_covering(cantor_diff, base7_double):
    # every row of every digit matrix keeps at least one chain alive
    rng = random.Random(23)
    for inst in (cantor_diff, base7_double):
        mats = [m.entries for m in transition_matrices(inst)]
        span = inst.span
        for _ in range(40):
            vec = [0] * span
            vec[rng.randrange(span)] = 1
            prev = 1
            for _ in range(8):
                j = rng.randrange(inst.n)
                vec = [
                    sum(vec[u] * mats[j][u][v] for u in range(span))
                    for v in range(span)
                ]
                assert sum(vec) >= prev
                prev = sum(vec)
