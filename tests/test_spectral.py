import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    compare_radii,
    spectral_radius,
    transition_matrices,
)
from slicekit.analysis import Analysis
from slicekit.graphs import component_matrix
from slicekit._sturm import _berkowitz
from slicekit.spectral import block_radius, max_radius

from helpers import block_rows, restricted, type_assignment

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
    rr = spectral_radius(restricted(cantor_diff)[2])
    assert rr.contains(2)
    assert rr.width <= Fraction(1, 10**9)


def test_radius_irrational(base7_double):
    rr = spectral_radius(restricted(base7_double)[2])
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


def test_char_poly_matches_numpy():
    rng = random.Random(5)
    for _ in range(20):
        size = rng.randint(1, 5)
        mat = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        coeffs = _berkowitz(block_rows(mat))
        ref = np.poly(np.array(mat, dtype=float))  # high-to-low
        assert len(coeffs) == size + 1
        for got, want in zip(reversed(coeffs), ref):
            assert abs(got - want) < 1e-6


def _compare(a, b):
    return compare_radii(spectral_radius(a), spectral_radius(b), block_rows(a), block_rows(b))


def _numpy_radius(matrix):
    return max(abs(v) for v in np.linalg.eigvals(np.array(matrix, dtype=float)))


def test_compare_radii_exact_cases():
    assert _compare([[1, 1], [1, 1]], [[2]]) == 0
    assert _compare([[2]], [[3]]) == -1
    # golden-ratio block vs the full matrix containing it
    a = [[1, 1], [1, 0]]
    b = [[1, 1, 0], [1, 0, 0], [1, 1, 0]]
    assert _compare(a, b) == 0
    assert _compare(b, a) == 0
    assert _compare([[1, 1], [1, 0]], [[1, 1], [1, 1]]) == -1
    assert _compare([[1, 1], [1, 1]], [[1, 1], [1, 0]]) == 1


def test_compare_radii_block_attains_max(base7_double, base6_mixed, cantor_diff):
    """The restricted graph's component radii and their fold are the
    enclosures spectral_radius certifies, and a component attains the
    largest radius, as the U1 measure class reads it, exactly when numpy
    finds its radius equal to the whole matrix's."""
    for inst in (base7_double, base6_mixed, cantor_diff):
        context = Analysis(inst)
        xi = context.xi
        matrix = component_matrix(xi.succ, range(len(xi.succ)))
        radii = [rr for rr, _ in context.xi_blocks]
        rho = max_radius(radii)
        assert rho == spectral_radius(matrix)
        blocks = [component_matrix(xi.succ, comp) for comp in xi.scc.components]
        attains = []
        for rr, block in zip(radii, blocks):
            assert rr == spectral_radius(block)
            attains.append(all(
                compare_radii(rr, other_rr, block_rows(block), block_rows(other)) >= 0
                for other_rr, other in zip(radii, blocks)
            ))
        full = _numpy_radius(matrix)
        assert attains == [abs(_numpy_radius(b) - full) < 1e-9 for b in blocks]
        assert any(attains)


@st.composite
def _block(draw):
    """A strongly connected nonnegative integer block: a cycle through all
    vertices plus random entries."""
    k = draw(st.integers(1, 20))
    rows = [[draw(st.sampled_from([0, 0, 0, 1, 1, 2])) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        if k > 1:
            rows[i][(i + 1) % k] = max(rows[i][(i + 1) % k], 1)
    return rows


@st.composite
def _block_pairs(draw):
    """(a, b): b is a permutation of a (equal radii), a with one entry
    raised by 1 (a strictly larger radius, close to a's), an integer block
    [[P]], or a second random block."""
    a = draw(_block())
    k = len(a)
    kind = draw(st.sampled_from(["permutation", "raised", "integer", "random"]))
    if kind == "permutation":
        perm = draw(st.permutations(range(k)))
        return a, [[a[i][j] for j in perm] for i in perm]
    if kind == "raised":
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        return a, [[x + (r == i and c == j) for c, x in enumerate(row)] for r, row in enumerate(a)]
    if kind == "integer":
        return a, [[draw(st.integers(0, 8))]]
    return a, draw(_block())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_block_pairs(), st.sampled_from([1e-9, 0.5, 4.0]))
def test_compare_radii_matches_numpy(pair, tolerance):
    """Enclosures certified at a coarse tolerance overlap often, so the
    Sturm/gcd path decides many of the pairs, up to 20 vertices."""
    a, b = pair
    rows_a, rows_b = block_rows(a), block_rows(b)
    ra = block_radius(rows_a, tolerance)
    rb = block_radius(rows_b, tolerance)
    xa, xb = _numpy_radius(a), _numpy_radius(b)
    want = 0 if abs(xa - xb) <= 1e-9 * max(1.0, xa) else (1 if xa > xb else -1)
    assert compare_radii(ra, rb, rows_a, rows_b) == want
    assert compare_radii(rb, ra, rows_b, rows_a) == -want


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


def test_overlapping_enclosures_reach_the_sturm_helpers(monkeypatch):
    """compare_radii imports its polynomial helpers when it first needs
    them, so coarse enclosures that overlap are decided there: equal radii
    by the gcd of the two polynomials, distinct ones by halving windows."""
    from slicekit import _sturm

    calls = {"_sturm_chain": 0, "_halve": 0}
    for name in calls:
        original = getattr(_sturm, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_sturm, name, counted)
    golden = block_rows([[0, 1], [1, 1]])  # rho = (1 + sqrt 5) / 2
    swapped = block_rows([[1, 1], [1, 0]])  # the same block, vertices swapped
    silver = block_rows([[0, 1], [1, 2]])  # rho = 1 + sqrt 2
    ra, rb, rc = (block_radius(m, 4.0) for m in (golden, swapped, silver))
    assert ra.upper >= rb.lower and rb.upper >= ra.lower
    assert rc.upper >= ra.lower and ra.upper >= rc.lower
    assert compare_radii(ra, rb, golden, swapped) == 0
    chains = calls["_sturm_chain"]
    assert chains >= 2
    assert compare_radii(rc, ra, silver, golden) == 1
    assert calls["_sturm_chain"] >= chains + 2 and calls["_halve"] > 0
