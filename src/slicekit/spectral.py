"""Count matrices and certified spectral radii.

Radii of nonnegative integer matrices are reported as rational enclosures
from Collatz-Wielandt ratio bounds, never as bare floats: for any positive
vector x, min_i (Bx)_i/x_i <= rho(B) <= max_i (Bx)_i/x_i.  A block is its
sparse rows, each vertex's (column, entry) pairs, never a dense matrix.
``block_radius`` certifies one strongly connected block; each multi-vertex
block gets an identity shift, (a, 1) added to row a, so the iteration
matrix is primitive and the bounds actually converge.  Its power iteration
is on ints throughout: the best bounds are int (numerator, denominator)
pairs compared by cross-multiplication, and each becomes one ``Fraction``
only when the iteration stops.  ``spectral_radius`` turns a dense matrix
into rows once, restricts them to each Tarjan component and folds their
enclosures with ``max_radius``; the ``analysis`` context certifies the
components ``graphs.scc`` has found, so no graph runs Tarjan twice.

``compare_radii`` orders two radii exactly, from their certified
enclosures and the two blocks' rows: disjoint enclosures decide it at
once, and only overlapping ones reach the algebra, where Berkowitz's
division-free algorithm on the rows (any size) gives integer characteristic
polynomials whose Sturm chains isolate each Perron root and whose gcd
decides equality.  Chains, gcds and squarefree parts are primitive
pseudo-remainder sequences over the integers, and signs at a rational point
are read off integers, so no coefficient is a ``Fraction``.  No radius
verdict is taken from a float.  Those polynomial helpers live in the
private ``_sturm`` module, which the functions that reach the algebra
import when they first do: a process whose enclosures never overlap never
compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from ._digraph import strongly_connected_components
from .errors import WideEnclosure
from .instance import ProblemInstance
from .lattice import children, open_children

DEFAULT_TOLERANCE = 1e-9
_MAX_ITERATIONS = 10**6

Matrix = Sequence[Sequence[int]]
# Sparse rows: each vertex's (column, entry) pairs; a repeated column adds.
Rows = Sequence[Sequence[tuple[int, int]]]


class CountMatrix(NamedTuple):
    """Square nonnegative integer matrix indexed by proj_min..proj_max-1.

    For the digit-j matrix, entry (u, v) counts the depth-1 cubes whose
    projection interval contains integer interval n*u+j at position v.
    """

    digit: int
    index_min: int
    entries: tuple[tuple[int, ...], ...]

    def entry(self, u: int, v: int) -> int:
        return self.entries[u - self.index_min][v - self.index_min]


class RadiusResult(NamedTuple):
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
    """The n digit matrices; row u of matrix j counts the open children of
    a chain at u under digit j (``lattice.open_children``), so entry (u, v)
    counts cubes of weight n*u + j - v."""
    lo, hi = inst.proj_min, inst.proj_max
    out = []
    for j in range(inst.n):
        rows = []
        for u in range(lo, hi):
            row = [0] * inst.span
            for v, count in open_children(inst, children(inst, j, u)):
                row[v - lo] = count
            rows.append(tuple(row))
        out.append(CountMatrix(digit=j, index_min=lo, entries=tuple(rows)))
    return out


def _as_rows(matrix: Matrix | CountMatrix) -> Rows:
    """Each row's nonzero entries as (column, entry) pairs, ascending."""
    dense = matrix.entries if isinstance(matrix, CountMatrix) else matrix
    return tuple(tuple([(j, int(x)) for j, x in enumerate(row) if x]) for row in dense)


def block_radius(rows: Rows, tolerance: float = DEFAULT_TOLERANCE) -> RadiusResult:
    """Certified radius enclosure of the block whose sparse ``rows`` are
    given, which must be strongly connected or a single vertex.

    The power iteration runs on ints: each step multiplies over the
    block's (column, entry) pairs only, picks the least and the largest
    ratio y_i/x_i by cross-multiplication (every x_i is positive), keeps
    the best lower and upper bound so far as int (numerator, denominator)
    pairs, updated and tested against the tolerance by cross-multiplication
    too, and makes one ``Fraction`` per bound, at the end."""
    k = len(rows)
    if k == 1:
        v = Fraction(sum([e for _, e in rows[0]]))
        return RadiusResult(v, v, float(v))
    # identity shift makes the block primitive; rho shifts by exactly 1
    shifted = [(*row, (a, 1)) for a, row in enumerate(rows)]
    x = [1] * k
    tn, td = Fraction(tolerance).as_integer_ratio()
    # the best bounds as ratios ln/ld and hn/hd; hn/hd starts at infinity
    ln, ld, hn, hd = 0, 1, 1, 0
    for _ in range(_MAX_ITERATIONS):
        y = [sum([e * x[j] for j, e in row]) for row in shifted]
        lo = hi = 0
        for i in range(1, k):
            if y[i] * x[lo] < y[lo] * x[i]:
                lo = i
            elif y[i] * x[hi] > y[hi] * x[i]:
                hi = i
        if y[lo] * ld > ln * x[lo]:
            ln, ld = y[lo], x[lo]
        if y[hi] * hd < hn * x[hi]:
            hn, hd = y[hi], x[hi]
        if (hn * ld - ln * hd) * td <= tn * hd * ld:
            lower, upper = Fraction(ln - ld, ld), Fraction(hn - hd, hd)
            return RadiusResult(lower, upper, float((lower + upper) / 2))
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
    radii = []
    for comp in strongly_connected_components([[j for j, _ in row] for row in rows]):
        position = {v: i for i, v in enumerate(sorted(comp))}
        block = [[(position[j], e) for j, e in rows[v] if j in position] for v in position]
        radii.append(block_radius(block, tolerance))
    return max_radius(radii)


# -- exact radius comparison ----------------------------------------------------

def char_poly(matrix: Matrix | CountMatrix) -> list[int]:
    """Coefficients [a_0, ..., a_n] of det(xI - A), exact, leading 1.

    Berkowitz's division-free algorithm: the polynomial of each leading
    (k+1) x (k+1) submatrix is a Toeplitz product of the previous one with
    1, -a_kk and -R M^j C (R, C the new row and column, M the previous
    submatrix), so only integer products and sums occur.
    """
    return _berkowitz(_as_rows(matrix))


def _berkowitz(rows: Rows) -> list[int]:
    """``char_poly`` of the matrix with sparse ``rows``."""
    poly = [1]  # high-to-low
    for k, last in enumerate(rows):
        # M's rows, R and C, each cut to the leading k columns or rows
        sub = [[(j, e) for j, e in row if j < k] for row in rows[:k]]
        head = [(j, e) for j, e in last if j < k]
        v = [sum([e for j, e in row if j == k]) for row in rows[:k]]
        toeplitz = [1, -sum([e for j, e in last if j == k])]
        for _ in range(k):
            toeplitz.append(-sum([e * v[j] for j, e in head]))
            v = [sum([e * v[j] for j, e in row]) for row in sub]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
            for i in range(k + 2)
        ]
    return poly[::-1]


def count_real_roots(poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of an integer polynomial in (lo, hi]."""
    from ._sturm import _squarefree, _sturm_chain, _variations

    sf = _squarefree(poly)
    if len(sf) == 1:
        return 0
    chain = _sturm_chain(sf)
    return _variations(chain, lo) - _variations(chain, hi)


def _perron_window(rows: Rows, rr: RadiusResult):
    """(Sturm chain, lo, hi, v_lo, v_hi): a window (lo, hi] that holds the
    Perron root of the block ``rows`` and no other root of its squarefree
    characteristic polynomial, narrowed from the certified enclosure
    ``rr``.  By Perron-Frobenius the radius is the largest real root."""
    from ._sturm import _halve, _squarefree, _sturm_chain, _variations

    chain = _sturm_chain(_squarefree(_berkowitz(rows)))
    lo, hi = rr.lower - (rr.width or 1), rr.upper
    window = (lo, hi, _variations(chain, lo), _variations(chain, hi))
    while window[2] - window[3] > 1:
        window = _halve(chain, *window)
    return (chain, *window)


def compare_radii(ra: RadiusResult, rb: RadiusResult, a: Rows, b: Rows) -> int:
    """The sign (-1, 0 or 1) of rho(a) - rho(b), exact, for the nonnegative
    integer blocks with sparse rows ``a`` and ``b`` whose radii have the
    certified enclosures ``ra`` and ``rb`` (as ``block_radius`` returns).

    One rows object gives 0 before any enclosure is read; disjoint
    enclosures decide it, equal point enclosures and rows that compare
    equal give 0.  Otherwise each radius is isolated by Sturm counts on
    its squarefree characteristic polynomial; the radii are equal exactly
    when the gcd of the two polynomials has a root where the two windows
    overlap, and else the windows are halved until they are disjoint.
    """
    # one rows object: every single-vertex loop block of a graph shares one
    if a is b:
        return 0
    if ra.upper < rb.lower:
        return -1
    if rb.upper < ra.lower:
        return 1
    if ra.lower == ra.upper == rb.lower == rb.upper:
        return 0
    if a == b:
        return 0
    from ._sturm import _halve, _poly_gcd

    chain_a, *wa = _perron_window(a, ra)
    chain_b, *wb = _perron_window(b, rb)
    lo, hi = max(wa[0], wb[0]), min(wa[1], wb[1])
    if lo < hi and count_real_roots(_poly_gcd(chain_a[0], chain_b[0]), lo, hi):
        return 0
    while wb[0] < wa[1] and wa[0] < wb[1]:
        wa = _halve(chain_a, *wa)
        wb = _halve(chain_b, *wb)
    return -1 if wa[1] <= wb[0] else 1
