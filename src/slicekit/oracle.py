"""Independent brute-force ground truth.

Chains of digit tuples are extended depth-first; a chain survives exactly
while the closed projection interval of its cube still contains x.  The
containment test is carried out on scaled integers (multiply through by the
denominator of x), so there is no floating point anywhere.  The count walks
digit tuples one by one and only memoises identical (offset, remaining
depth) subtrees, which leaves the enumeration semantics untouched.

Each function refuses with TooLarge, before it allocates, what it cannot
hold: more than _CUBE_CAP cubes per level (it lists every cube), a count
whose memo may need more than _STATE_CAP states, and chains holding more
than _CHAIN_CAP digits together.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import OutOfRange, TooLarge
from .instance import ProblemInstance

# Most digit cubes per level, most (offset, remaining depth) states the
# count may memoise, and most digits (chains times depth times factors) the
# listed chains may hold.
_CUBE_CAP = 2**18
_STATE_CAP = 2**18
_CHAIN_CAP = 10**6


class CubeChain(NamedTuple):
    """A surviving chain: digit tuples per depth plus the exact projection
    interval of the final cube."""

    digits: tuple[tuple[int, ...], ...]
    interval: tuple[Fraction, Fraction]


def _check(inst: ProblemInstance, x: Fraction, k: int) -> Fraction:
    """x as a Fraction; OutOfRange outside the range or at a negative
    depth, TooLarge past _CUBE_CAP cubes per level."""
    x = Fraction(x)
    if not inst.proj_min <= x <= inst.proj_max:
        raise OutOfRange(f"{x} outside [{inst.proj_min}, {inst.proj_max}]")
    if k < 0:
        raise OutOfRange("depth must be >= 0")
    if inst.cube_count > _CUBE_CAP:
        raise TooLarge(f"{inst.cube_count} digit cubes per level, more than {_CUBE_CAP}")
    return x


def brute_force_cube_count(inst: ProblemInstance, x: Fraction | int, k: int) -> int:
    """Number of depth-k chains whose closed projection interval contains x.

    State: R = q * (n^depth * x - weighted prefix) for x = p/q; a cube of
    weight w keeps the chain alive iff q*proj_min <= n*R - q*w <= q*proj_max.
    The R at one depth agree mod q (each is n^depth * p mod q), so at most
    span + 1 of them lie in that range, and the memo holds at most
    (k + 1) * (span + 1) states; TooLarge when that exceeds _STATE_CAP.
    """
    x = _check(inst, x, k)
    if (k + 1) * (inst.span + 1) > _STATE_CAP:
        raise TooLarge(f"a depth-{k} count may memoise more than {_STATE_CAP} states")
    p, q = x.numerator, x.denominator
    n = inst.n
    lo, hi = q * inst.proj_min, q * inst.proj_max
    cube_weights = [inst.weight(d) for d in inst.iter_cubes()]
    memo: dict[tuple[int, int], int] = {}
    # post-order on an explicit stack: expand a key, then sum its children
    stack: list[tuple[tuple[int, int], list | None]] = [((p, k), None)]
    while stack:
        key, children = stack.pop()
        if key in memo:
            continue
        r, remaining = key
        if remaining == 0:
            memo[key] = 1
        elif children is None:
            base = n * r
            children = [
                (base - q * w, remaining - 1)
                for w in cube_weights
                if lo <= base - q * w <= hi
            ]
            stack.append((key, children))
            stack.extend((c, None) for c in children if c not in memo)
        else:
            memo[key] = sum(memo[c] for c in children)
    return memo[(p, k)]


def brute_force_solutions(inst: ProblemInstance, x: Fraction | int, k: int) -> list[CubeChain]:
    """The surviving chains themselves, in lexicographic digit order;
    TooLarge once they hold more than _CHAIN_CAP digits, k * l per chain."""
    x = _check(inst, x, k)
    most = _CHAIN_CAP // max(k * inst.l, 1)
    if most == 0:
        raise TooLarge(f"a depth-{k} chain holds more than {_CHAIN_CAP} digits")
    p, q = x.numerator, x.denominator
    n = inst.n
    lo, hi = q * inst.proj_min, q * inst.proj_max
    cubes = [(d, inst.weight(d)) for d in inst.iter_cubes()]
    out: list[tuple[tuple[int, ...], ...]] = []
    # explicit stack of (prefix length, last digits, R), in lexicographic order
    prefix: list[tuple[int, ...]] = []
    stack: list[tuple[int, tuple[int, ...] | None, int]] = [(0, None, p)]
    while stack:
        length, last, r = stack.pop()
        del prefix[length:]
        if last is not None:
            prefix.append(last)
        if len(prefix) == k:
            if len(out) == most:
                raise TooLarge(f"the surviving chains hold more than {_CHAIN_CAP} digits")
            out.append(tuple(prefix))
            continue
        base = n * r
        children = [
            (len(prefix), digits, base - q * w)
            for digits, w in cubes
            if lo <= base - q * w <= hi
        ]
        stack.extend(reversed(children))
    big = n**k
    chains = []
    for digits in out:
        weighted = 0
        for tup in digits:
            weighted = weighted * n + inst.weight(tup)
        chains.append(
            CubeChain(
                digits=digits,
                interval=(
                    Fraction(weighted + inst.proj_min, big),
                    Fraction(weighted + inst.proj_max, big),
                ),
            )
        )
    return sorted(chains, key=lambda c: c.digits)
