"""Count matrices and certified spectral radii.

Radii of nonnegative integer matrices are reported as rational enclosures
from Collatz-Wielandt ratio bounds, never as bare floats: for any positive
vector x, min_i (Bx)_i/x_i <= rho(B) <= max_i (Bx)_i/x_i.  ``block_radius``
certifies one strongly connected block; each multi-vertex block gets an
identity shift so the iteration matrix is primitive and the bounds actually
converge.  Its power iteration is on ints throughout: the best bounds are
int (numerator, denominator) pairs compared by cross-multiplication, and
each becomes one ``Fraction`` only when the iteration stops.
``spectral_radius`` splits a reducible matrix into its blocks and
folds their enclosures with ``max_radius``; the ``analysis`` context calls
the same certifier on the components ``graphs.scc`` has already found, so
a decomposed graph never runs Tarjan twice.

``compare_radii`` orders two radii exactly, from their certified
enclosures and the two blocks: disjoint enclosures decide it at once, and
only overlapping ones reach the algebra, where ``char_poly`` (Berkowitz,
division-free, so any size) gives integer characteristic polynomials whose
Sturm chains isolate each Perron root and whose gcd decides equality.
Chains, gcds and squarefree parts are primitive pseudo-remainder sequences
over the integers, and signs at a rational point are read off integers, so
no coefficient is a ``Fraction``.  No radius verdict is taken from a float.
Those polynomial helpers live in the private ``_sturm`` module, which the
functions that reach the algebra import when they first do: a process
whose enclosures never overlap never compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from ._digraph import strongly_connected_components
from .errors import WideEnclosure
from .instance import ProblemInstance
from .lattice import children

DEFAULT_TOLERANCE = 1e-9
_MAX_ITERATIONS = 10**6

Matrix = Sequence[Sequence[int]]


class CountMatrix(NamedTuple):
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
    """The n digit matrices; row u of matrix j counts the children of a
    chain at u under digit j (``lattice.children``), those below proj_max,
    so entry (u, v) counts cubes of weight n*u + j - v."""
    lo, hi = inst.proj_min, inst.proj_max
    out = []
    for j in range(inst.n):
        rows = []
        for u in range(lo, hi):
            row = [0] * inst.span
            for v, count in children(inst, j, u):
                if v < hi:
                    row[v - lo] = count
            rows.append(tuple(row))
        out.append(CountMatrix(digit=j, index_min=lo, entries=tuple(rows)))
    return out


def _as_rows(matrix: Matrix | CountMatrix) -> tuple[tuple[int, ...], ...]:
    if isinstance(matrix, CountMatrix):
        return matrix.entries
    return tuple(tuple(int(x) for x in row) for row in matrix)


def _adjacency(rows: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    return [[j for j, x in enumerate(row) if x > 0] for row in rows]


def block_radius(
    rows: Matrix, verts: Sequence[int], tolerance: float = DEFAULT_TOLERANCE
) -> RadiusResult:
    """Certified radius enclosure of the block of ``rows`` on ``verts``,
    which must be strongly connected or a single vertex.

    The power iteration runs on ints: each step multiplies over the
    block's nonzero entries only, picks the least and the largest ratio
    y_i/x_i by cross-multiplication (every x_i is positive), keeps the best
    lower and upper bound so far as int (numerator, denominator) pairs,
    updated and tested against the tolerance by cross-multiplication too,
    and makes one ``Fraction`` per bound, at the end."""
    k = len(verts)
    if k == 1:
        v = Fraction(rows[verts[0]][verts[0]])
        return RadiusResult(v, v, float(v))
    # identity shift makes the block primitive; rho shifts by exactly 1
    shifted = [
        [(j, rows[a][b] + (a == b)) for j, b in enumerate(verts) if rows[a][b] or a == b]
        for a in verts
    ]
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
    comps = strongly_connected_components(_adjacency(rows))
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
    comps = strongly_connected_components(_adjacency(rows))
    return len(comps) == 1


# -- exact radius comparison ----------------------------------------------------

def char_poly(matrix: Matrix | CountMatrix) -> list[int]:
    """Coefficients [a_0, ..., a_n] of det(xI - A), exact, leading 1.

    Berkowitz's division-free algorithm: the polynomial of each leading
    (k+1) x (k+1) submatrix is a Toeplitz product of the previous one with
    1, -a_kk and -R M^j C (R, C the new row and column, M the previous
    submatrix), so only integer products and sums occur.
    """
    rows = _as_rows(matrix)
    poly = [1]  # high-to-low
    for k in range(len(rows)):
        sub = [r[:k] for r in rows[:k]]
        row, v = rows[k][:k], [r[k] for r in rows[:k]]
        toeplitz = [1, -rows[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(a * b for a, b in zip(row, v)))
            v = [sum(a * b for a, b in zip(r, v)) for r in sub]
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


def _perron_window(matrix: Matrix, rr: RadiusResult):
    """(Sturm chain, lo, hi, v_lo, v_hi): a window (lo, hi] that holds the
    Perron root of ``matrix`` and no other root of its squarefree
    characteristic polynomial, narrowed from the certified enclosure
    ``rr``.  By Perron-Frobenius the radius is the largest real root."""
    from ._sturm import _halve, _squarefree, _sturm_chain, _variations

    chain = _sturm_chain(_squarefree(char_poly(matrix)))
    lo, hi = rr.lower - (rr.width or 1), rr.upper
    window = (lo, hi, _variations(chain, lo), _variations(chain, hi))
    while window[2] - window[3] > 1:
        window = _halve(chain, *window)
    return (chain, *window)


def compare_radii(
    ra: RadiusResult,
    rb: RadiusResult,
    a: Matrix | CountMatrix,
    b: Matrix | CountMatrix,
) -> int:
    """The sign (-1, 0 or 1) of rho(a) - rho(b), exact, for nonnegative
    integer matrices ``a`` and ``b`` whose radii have the certified
    enclosures ``ra`` and ``rb`` (as ``block_radius`` returns).

    One matrix object gives 0 before any enclosure is read; disjoint
    enclosures decide it, equal point enclosures and matrices that compare
    equal give 0.  Otherwise each radius is isolated by Sturm counts on
    its squarefree characteristic polynomial; the radii are equal exactly
    when the gcd of the two polynomials has a root where the two windows
    overlap, and else the windows are halved until they are disjoint.
    """
    # one matrix object: every single-vertex loop block of a graph shares one
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
