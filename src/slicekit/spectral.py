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
folds their enclosures with ``max_radius``; ``graphs.scc`` calls the same
certifier on the components it has already found, so a decomposed graph
never runs Tarjan twice.

``compare_radii`` orders two radii exactly, from their certified
enclosures and the two blocks: disjoint enclosures decide it at once, and
only overlapping ones reach the algebra, where ``char_poly`` (Berkowitz,
division-free, so any size) gives integer characteristic polynomials whose
Sturm chains isolate each Perron root and whose gcd decides equality.
Chains, gcds and squarefree parts are primitive pseudo-remainder sequences
over the integers, and signs at a rational point are read off integers, so
no coefficient is a ``Fraction``.  No radius verdict is taken from a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from ._digraph import strongly_connected_components
from .errors import InternalError, WideEnclosure
from .instance import ProblemInstance

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


def _poly_trim(p: list[int]) -> list[int]:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p or [0]


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients: a positive multiple."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _poly_prem(p: list[int], q: list[int]) -> list[int]:
    """The remainder of |lc(q)|**(deg p - deg q + 1) * p divided by q: a
    positive multiple of the remainder over the rationals, computed over
    the integers (pseudo-division, with p itself when deg p < deg q)."""
    rem = list(p)
    lead, sign = abs(q[-1]), (1 if q[-1] > 0 else -1)
    for shift in range(len(p) - len(q), -1, -1):
        # rem <- lead * rem - sign * lc(rem) * x**shift * q cancels the top
        top = sign * rem.pop()
        rem = [lead * c for c in rem]
        for i, c in enumerate(q[:-1]):
            rem[shift + i] -= top * c
    return _poly_trim(rem)


def _poly_div_exact(p: list[int], q: list[int]) -> list[int]:
    """p / q for integer polynomials where q divides p over the integers."""
    rem = list(p)
    quot = [0] * (len(p) - len(q) + 1)
    for shift in range(len(p) - len(q), -1, -1):
        top, left = divmod(rem.pop(), q[-1])
        if left:
            raise InternalError("a polynomial does not divide another exactly")
        quot[shift] = top
        for i, c in enumerate(q[:-1]):
            rem[shift + i] -= top * c
    if any(rem):
        raise InternalError("a polynomial does not divide another exactly")
    return quot


def _poly_gcd(p: list[int], q: list[int]) -> list[int]:
    """A gcd of two integer polynomials by the primitive pseudo-remainder
    sequence: primitive, with a positive leading coefficient."""
    p, q = _poly_trim(p), _poly_trim(q)
    while q != [0]:
        p, q = q, _primitive(_poly_prem(p, q))
    p = _primitive(p)
    return p if p[-1] > 0 else [-c for c in p]


def _poly_deriv(p: list[int]) -> list[int]:
    return _poly_trim([i * c for i, c in enumerate(p)][1:])


def _squarefree(p: list[int]) -> list[int]:
    """p divided by its gcd with p': the same roots, each simple.  The gcd
    is primitive, so by Gauss's lemma the quotient has integer
    coefficients."""
    p = _poly_trim(p)
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) == 1:
        return p
    return _poly_div_exact(p, g)


def _sign_at(p: list[int], x: Fraction) -> int:
    """The sign of p(x), read off the integer b**deg(p) * p(a/b) for
    x = a/b, b > 0."""
    a, b = x.numerator, x.denominator
    acc, power = 0, 1
    for c in reversed(p):
        acc = acc * a + c * power
        power *= b
    return (acc > 0) - (acc < 0)


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """The Sturm chain of p as a primitive pseudo-remainder sequence: each
    member a positive multiple of the one the rational remainder sequence
    gives, so the sign variations at every point are the same."""
    chain = [_poly_trim(p)]
    d = _poly_deriv(chain[0])
    if d != [0]:
        chain.append(d)
        while True:
            r = _poly_prem(chain[-2], chain[-1])
            if r == [0]:
                break
            chain.append([-c for c in _primitive(r)])
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = [sign for sign in (_sign_at(p, x) for p in chain) if sign]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of an integer polynomial in (lo, hi]."""
    sf = _squarefree(poly)
    if len(sf) == 1:
        return 0
    chain = _sturm_chain(sf)
    return _variations(chain, lo) - _variations(chain, hi)


def _halve(chain, lo: Fraction, hi: Fraction, v_lo: int, v_hi: int):
    """The half of window (lo, hi] that keeps the largest root of the
    squarefree polynomial whose Sturm chain is ``chain`` and which has a
    root in the window; v_lo and v_hi are the sign variations at the ends."""
    mid = (lo + hi) / 2
    v_mid = _variations(chain, mid)
    if v_mid > v_hi:  # a root in (mid, hi], so the largest one
        return mid, hi, v_mid, v_hi
    return lo, mid, v_lo, v_mid


def _perron_window(matrix: Matrix, rr: RadiusResult):
    """(Sturm chain, lo, hi, v_lo, v_hi): a window (lo, hi] that holds the
    Perron root of ``matrix`` and no other root of its squarefree
    characteristic polynomial, narrowed from the certified enclosure
    ``rr``.  By Perron-Frobenius the radius is the largest real root."""
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
    chain_a, *wa = _perron_window(a, ra)
    chain_b, *wb = _perron_window(b, rb)
    lo, hi = max(wa[0], wb[0]), min(wa[1], wb[1])
    if lo < hi and count_real_roots(_poly_gcd(chain_a[0], chain_b[0]), lo, hi):
        return 0
    while wb[0] < wa[1] and wa[0] < wb[1]:
        wa = _halve(chain_a, *wa)
        wb = _halve(chain_b, *wb)
    return -1 if wa[1] <= wb[0] else 1
