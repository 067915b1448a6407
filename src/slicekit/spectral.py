"""Count matrices and certified spectral radii.

Radii of nonnegative integer matrices are reported as rational enclosures
from Collatz-Wielandt ratio bounds, never as bare floats: for any positive
vector x, min_i (Bx)_i/x_i <= rho(B) <= max_i (Bx)_i/x_i.  ``block_radius``
certifies one strongly connected block; each multi-vertex block gets an
identity shift so the iteration matrix is primitive and the bounds actually
converge.  ``spectral_radius`` splits a reducible matrix into its blocks and
folds their enclosures with ``max_radius``; ``graphs.scc`` calls the same
certifier on the components it has already found, so a decomposed graph
never runs Tarjan twice.

Equality of two radii is decided at a tolerance, then confirmed exactly via
integer characteristic polynomials and Sturm root counting when the matrices
are small (the enclosures alone already refute equality when disjoint).
``enclosed_radii_equal`` takes the two enclosures as given, so a caller that
already holds certified radii does not certify them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ._digraph import strongly_connected_components
from .errors import WideEnclosure
from .instance import ProblemInstance

DEFAULT_TOLERANCE = 1e-9
_MAX_ITERATIONS = 10**6
_EXACT_SIZE_LIMIT = 12

Matrix = Sequence[Sequence[int]]


@dataclass(frozen=True)
class CountMatrix:
    """Square nonnegative integer matrix indexed by proj_min..proj_max-1.

    For the digit-j matrix, entry (u, v) counts the depth-1 cubes whose
    projection interval contains integer interval n*u+j at position v.
    """

    digit: int
    index_min: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, u: int, v: int) -> int:
        return self.entries[u - self.index_min][v - self.index_min]


@dataclass(frozen=True)
class RadiusResult:
    """Certified enclosure lower <= rho <= upper with upper-lower <= tol."""

    lower: Fraction
    upper: Fraction
    estimate: float

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, value) -> bool:
        return self.lower <= value <= self.upper


def transition_matrices(inst: ProblemInstance) -> list[CountMatrix]:
    """The n digit matrices; entry (u, v) of matrix j counts cubes of weight
    n*u + j - v."""
    weights = inst.cube_weights
    lo, hi = inst.proj_min, inst.proj_max
    out = []
    for j in range(inst.n):
        rows = tuple(
            tuple(weights.get(inst.n * u + j - v, 0) for v in range(lo, hi))
            for u in range(lo, hi)
        )
        out.append(CountMatrix(digit=j, index_min=lo, entries=rows))
    return out


def _as_rows(matrix: Matrix | CountMatrix) -> tuple[tuple[int, ...], ...]:
    if isinstance(matrix, CountMatrix):
        return matrix.entries
    return tuple(tuple(int(x) for x in row) for row in matrix)


def _adjacency(rows: tuple[tuple[int, ...], ...]) -> dict[int, list[int]]:
    return {
        i: [j for j, x in enumerate(row) if x > 0] for i, row in enumerate(rows)
    }


def block_radius(
    rows: Matrix, verts: Sequence[int], tolerance: float = DEFAULT_TOLERANCE
) -> RadiusResult:
    """Certified radius enclosure of the block of ``rows`` on ``verts``,
    which must be strongly connected or a single vertex."""
    k = len(verts)
    if k == 1:
        v = Fraction(rows[verts[0]][verts[0]])
        return RadiusResult(v, v, float(v))
    # identity shift makes the block primitive; rho shifts by exactly 1
    shifted = [
        [rows[a][b] + (1 if a == b else 0) for b in verts] for a in verts
    ]
    x = [1] * k
    tol = Fraction(tolerance)
    best_lo = Fraction(0)
    best_hi = None
    for _ in range(_MAX_ITERATIONS):
        y = [sum(shifted[i][j] * x[j] for j in range(k)) for i in range(k)]
        ratios = [Fraction(y[i], x[i]) for i in range(k)]
        lo, hi = min(ratios), max(ratios)
        best_lo = max(best_lo, lo)
        best_hi = hi if best_hi is None else min(best_hi, hi)
        if best_hi - best_lo <= tol:
            lo, hi = best_lo - 1, best_hi - 1
            return RadiusResult(lo, hi, float((lo + hi) / 2))
        x = y
        top = max(x)
        if top.bit_length() > 512:
            shift = top.bit_length() - 256
            x = [max(1, v >> shift) for v in x]
    raise WideEnclosure(
        f"power iteration did not reach width {tolerance} in {_MAX_ITERATIONS} steps"
    )


def max_radius(radii: Iterable[RadiusResult]) -> RadiusResult:
    """The radius of a matrix from those of its blocks: the max of the lower
    and of the upper bounds (0 for no blocks)."""
    lo = Fraction(0)
    hi = Fraction(0)
    for rr in radii:
        lo = max(lo, rr.lower)
        hi = max(hi, rr.upper)
    return RadiusResult(lower=lo, upper=hi, estimate=float((lo + hi) / 2))


def spectral_radius(matrix: Matrix | CountMatrix, tolerance: float = DEFAULT_TOLERANCE) -> RadiusResult:
    """Certified enclosure of the Perron root of a nonnegative integer matrix."""
    rows = _as_rows(matrix)
    comps = strongly_connected_components(list(range(len(rows))), _adjacency(rows))
    return max_radius(block_radius(rows, sorted(comp), tolerance) for comp in comps)


def irreducible(matrix: Matrix | CountMatrix) -> bool:
    """True when the positive-entry digraph is strongly connected; a 1x1
    matrix counts only if its single entry is positive."""
    rows = _as_rows(matrix)
    size = len(rows)
    if size == 0:
        return False
    if size == 1:
        return rows[0][0] > 0
    comps = strongly_connected_components(list(range(size)), _adjacency(rows))
    return len(comps) == 1


# -- exact characteristic-polynomial machinery --------------------------------

def _det_bareiss(mat: list[list[int]]) -> int:
    """Fraction-free exact determinant of an integer matrix."""
    m = [row[:] for row in mat]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def char_poly(matrix: Matrix | CountMatrix) -> list[int]:
    """Coefficients [a_0, ..., a_n] of det(xI - A), exact, leading 1.

    Evaluated at n+1 integer points by Bareiss determinants, then
    interpolated; sizes here are small so this stays cheap.
    """
    rows = _as_rows(matrix)
    size = len(rows)
    if size == 0:
        return [1]
    points = []
    for x in range(size + 1):
        shifted = [
            [(x if i == j else 0) - rows[i][j] for j in range(size)]
            for i in range(size)
        ]
        points.append((x, _det_bareiss(shifted)))
    coeffs = _interpolate(points)
    assert all(c.denominator == 1 for c in coeffs)
    out = [int(c) for c in coeffs]
    assert out[-1] == 1
    return out


def _interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Lagrange interpolation, coefficients low-to-high."""
    degree = len(points) - 1
    acc = [Fraction(0)] * (degree + 1)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = _poly_mul(basis, [Fraction(-xj), Fraction(1)])
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            acc[k] += scale * c
    return acc


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    if not p:
        return [Fraction(0)]
    return p


def _poly_divmod(p, q):
    p = _poly_trim([Fraction(c) for c in p])
    q = _poly_trim([Fraction(c) for c in q])
    if q == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(1, len(p) - len(q) + 1)
    rem = p[:]
    while True:
        rem = _poly_trim(rem)
        if rem == [Fraction(0)] or len(rem) < len(q):
            break
        shift = len(rem) - len(q)
        factor = rem[-1] / q[-1]
        quot[shift] += factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem.pop()  # leading coefficient cancelled exactly
    return _poly_trim(quot), _poly_trim(rem)


def _poly_gcd(p, q):
    p = _poly_trim([Fraction(c) for c in p])
    q = _poly_trim([Fraction(c) for c in q])
    while q != [Fraction(0)]:
        _, r = _poly_divmod(p, q)
        p, q = q, _poly_trim(r)
    if p[-1] != 0:
        p = [c / p[-1] for c in p]
    return p


def _poly_deriv(p):
    return _poly_trim([Fraction(i) * c for i, c in enumerate(p)][1:]) or [Fraction(0)]


def _squarefree(p):
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) == 1:
        return [Fraction(c) for c in p]
    q, r = _poly_divmod(p, g)
    assert _poly_trim(r) == [Fraction(0)]
    return q


def _poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sturm_chain(p):
    chain = [_poly_trim([Fraction(c) for c in p])]
    d = _poly_deriv(p)
    if d != [Fraction(0)]:
        chain.append(d)
        while True:
            _, r = _poly_divmod(chain[-2], chain[-1])
            r = _poly_trim(r)
            if r == [Fraction(0)]:
                break
            chain.append([-c for c in r])
    return chain


def _variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of an integer/rational polynomial in (lo, hi]."""
    sf = _squarefree(poly)
    if len(sf) == 1:
        return 0
    chain = _sturm_chain(sf)
    return _variations(chain, lo) - _variations(chain, hi)


def radii_equal(
    a: Matrix | CountMatrix,
    b: Matrix | CountMatrix,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[bool, str]:
    """Decide rho(a) == rho(b); returns (equal, "exact" | "tolerance").

    Certifies both radii with ``spectral_radius``, then decides as
    ``enclosed_radii_equal`` does.
    """
    return enclosed_radii_equal(
        spectral_radius(a, tolerance), spectral_radius(b, tolerance), a, b, tolerance
    )


def enclosed_radii_equal(
    ra: RadiusResult,
    rb: RadiusResult,
    a: Matrix | CountMatrix,
    b: Matrix | CountMatrix,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[bool, str]:
    """Decide rho(a) == rho(b) from certified enclosures ``ra`` and ``rb``
    of them (as ``spectral_radius`` returns at this tolerance); returns
    (equal, "exact" | "tolerance").

    Disjoint certified enclosures refute equality exactly.  Overlapping
    enclosures on small matrices are settled by locating the shared root of
    the characteristic polynomials inside the overlap window via Sturm
    counts; otherwise the midpoints are compared at the tolerance.
    """
    if ra.upper < rb.lower or rb.upper < ra.lower:
        return False, "exact"
    rows_a, rows_b = _as_rows(a), _as_rows(b)
    if len(rows_a) <= _EXACT_SIZE_LIMIT and len(rows_b) <= _EXACT_SIZE_LIMIT:
        pad = Fraction(1, 10**12)
        pa = _squarefree(char_poly(rows_a))
        pb = _squarefree(char_poly(rows_b))
        cnt_a = count_real_roots(pa, ra.lower - pad, ra.upper)
        cnt_b = count_real_roots(pb, rb.lower - pad, rb.upper)
        if cnt_a == 1 and cnt_b == 1:
            olo = max(ra.lower, rb.lower) - pad
            ohi = min(ra.upper, rb.upper)
            g = _poly_gcd(pa, pb)
            if len(g) > 1 and count_real_roots(g, olo, ohi) >= 1:
                return True, "exact"
            return False, "exact"
    return abs(ra.estimate - rb.estimate) <= tolerance, "tolerance"
