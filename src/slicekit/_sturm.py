"""The exact algebra behind ``spectral.compare_radii``.

Berkowitz's division-free characteristic polynomial of a block's sparse
rows, and the integer polynomial helpers that isolate its Perron root:
pseudo-remainder sequences made primitive at every step, so every
coefficient stays an int, give gcds, squarefree parts, Sturm chains and
their sign variations at a rational point, and the bisection step that
keeps a window around the largest root (``_perron_window``).  Only the
exact radius comparison reads them, and only when two certified
enclosures overlap, so ``spectral`` imports this module inside the
functions that take that path: no ``analyze`` or ``matrices`` run on a
bundled instance compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING

from .errors import InternalError

if TYPE_CHECKING:
    from .spectral import RadiusResult, Rows


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


def _halve(chain, lo: Fraction, hi: Fraction, v_lo: int, v_hi: int):
    """The half of window (lo, hi] that keeps the largest root of the
    squarefree polynomial whose Sturm chain is ``chain`` and which has a
    root in the window; v_lo and v_hi are the sign variations at the ends."""
    mid = (lo + hi) / 2
    v_mid = _variations(chain, mid)
    if v_mid > v_hi:  # a root in (mid, hi], so the largest one
        return mid, hi, v_mid, v_hi
    return lo, mid, v_lo, v_mid


def _berkowitz(rows: Rows) -> list[int]:
    """Coefficients [a_0, ..., a_n] of det(xI - A), exact, leading 1, for
    the matrix A with sparse ``rows``.

    Berkowitz's division-free algorithm: the polynomial of each leading
    (k+1) x (k+1) submatrix is a Toeplitz product of the previous one with
    1, -a_kk and -R M^j C (R, C the new row and column, M the previous
    submatrix), so only integer products and sums occur.
    """
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


def _perron_window(rows: Rows, rr: RadiusResult):
    """(Sturm chain, lo, hi, v_lo, v_hi): a window (lo, hi] that holds the
    Perron root of the block ``rows`` and no other root of its squarefree
    characteristic polynomial, narrowed from the certified enclosure
    ``rr``.  By Perron-Frobenius the radius is the largest real root."""
    chain = _sturm_chain(_squarefree(_berkowitz(rows)))
    lo, hi = rr.lower - (rr.width or 1), rr.upper
    window = (lo, hi, _variations(chain, lo), _variations(chain, hi))
    while window[2] - window[3] > 1:
        window = _halve(chain, *window)
    return (chain, *window)
