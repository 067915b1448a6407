"""Exact representation counting for rational points.

Two mechanisms, deliberately kept apart:

* the matrix route: the number of depth-k product cubes meeting the slice at
  a non-boundary x equals the 1-norm of e_i T_{j1} ... T_{jk}, where i is the
  integer part and j1 j2 ... the base-n digits of x;
* the slice-state automaton: the exact multiset of per-chain offsets
  n^k * x - (weighted digit prefix), advanced one digit at a time.  For
  x = p/q every offset lies on the lattice (1/q)Z, so the multiset is kept as
  integer (q * offset, multiplicity) pairs: a digit costs O(support x
  distinct cube weights) integer operations, whatever the number of chains.
  It also covers boundary points (x = q1/n^q2), where chains are kept alive
  by closed-interval containment.

``exact_card`` does each piece of work at the level it depends on: covering
and strong separation once per instance (remembered in a weak-keyed table,
so the record goes with the instance); the range check, the expansion's
preperiod and period lengths (no digit is written out, since the automaton
reads x itself) and the scaled weights (q * w, count) once per query; and
per digit one call of the step kernel on the raw pairs, with the
cardinality summed once.
``advance_state`` is the public one-step view of the same kernel.

For rational x the automaton state space is finite (at most span * q + 1
distinct offsets), so recurrences are real cycles.  An exact recurrence of
(digit phase, offset multiset) proves the count stays constant; a recurrence
of (digit phase, offset support) with a strictly larger multiset proves
unbounded growth, because under the covering condition every surviving chain
keeps at least one child, so the surplus mass reproduces itself every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from typing import NamedTuple
from weakref import WeakKeyDictionary

from .errors import (
    BoundaryPoint,
    CoveringRequired,
    HypothesisViolated,
    OutOfRange,
    TooLarge,
)
from .instance import ProblemInstance
from .lattice import covering_condition, strong_separation
from .spectral import transition_matrices

DEFAULT_BUDGET = 4096

# Most digits an expansion may take, preperiod and repeating period together:
# ``nadic_expansion`` writes out no more, and ``exact_card`` counts no point
# whose expansion is longer.
_EXPANSION_CAP = 2**20


class NadicExpansion(NamedTuple):
    """Base-n expansion x = integer_part + 0.d1 d2 d3 ...

    ``preperiod`` then ``period`` (repeating) describe the whole digit
    stream; terminating expansions carry period (0,) and the boundary flag.
    """

    integer_part: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    boundary: bool

    def digit(self, k: int) -> int:
        """k-th digit, 1-based."""
        idx = k - 1
        if idx < len(self.preperiod):
            return self.preperiod[idx]
        return self.period[(idx - len(self.preperiod)) % len(self.period)]

    def digits(self, count: int) -> tuple[int, ...]:
        return tuple(self.digit(k) for k in range(1, count + 1))

    def phase(self, depth: int) -> int:
        """Position in the digit stream after ``depth`` digits were consumed;
        equal phases mean identical remaining digit streams."""
        pre = len(self.preperiod)
        if depth < pre:
            return depth
        return pre + (depth - pre) % len(self.period)


def _expansion_lengths(inst: ProblemInstance, x: Fraction) -> tuple[int, int]:
    """The preperiod and period lengths of the base-n expansion of x, with
    no digit written out; a terminating x has the period (0,), of length 1.
    For x = i + p/q in lowest terms, the preperiod has one digit per step
    q //= gcd(q, n) until the gcd is 1, and the period is the multiplicative
    order of n modulo what is left.  Raises OutOfRange outside the range,
    and TooLarge as soon as the preperiod and a repeating period need more
    than _EXPANSION_CAP digits."""
    p, q = x.numerator, x.denominator
    if not q * inst.proj_min <= p <= q * inst.proj_max:
        raise OutOfRange(f"{x} outside [{inst.proj_min}, {inst.proj_max}]")
    n = inst.n
    pre, rest = 0, q
    while (g := gcd(rest, n)) > 1:
        rest //= g
        pre += 1
    period = 0
    if rest > 1:
        power, period = n % rest, 1
        while power != 1 and pre + period <= _EXPANSION_CAP:
            power = power * n % rest
            period += 1
    if pre + period > _EXPANSION_CAP:
        raise TooLarge(f"the base-{n} expansion of {x} needs over {_EXPANSION_CAP} digits")
    return pre, period or 1


def nadic_expansion(inst: ProblemInstance, x: Fraction | int) -> NadicExpansion:
    """Exact expansion by long division of only the digits it needs, as
    many as ``_expansion_lengths`` counts.  The remainder after them is 0
    exactly when x terminates, and the period is then (0,)."""
    x = Fraction(x)
    pre, period = _expansion_lengths(inst, x)
    n, q = inst.n, x.denominator
    # x = i + p/q with 0 <= p < q, still in lowest terms
    i, p = divmod(x.numerator, q)
    digits = []
    for _ in range(pre + period):
        d, p = divmod(n * p, q)
        digits.append(d)
    return NadicExpansion(i, tuple(digits[:pre]), tuple(digits[pre:]), p == 0)


def expansion_value(inst_n: int, integer_part: int, preperiod, period) -> Fraction:
    """Rational value of an eventually periodic expansion."""
    n = inst_n
    value = Fraction(integer_part)
    scale = Fraction(1)
    for d in preperiod:
        scale /= n
        value += d * scale
    if period and any(period):
        num = 0
        for d in period:
            num = num * n + d
        value += scale * Fraction(num, n ** len(period) - 1)
    return value


def cube_count_vector(inst: ProblemInstance, x: Fraction | int, k: int) -> tuple[int, ...]:
    """e_i T_{j1} ... T_{jk} for the expansion of a non-boundary x; the
    entries are the depth-k chain counts per unit offset, their sum the
    number of depth-k cubes meeting the slice."""
    if not covering_condition(inst):
        raise CoveringRequired("the depth-1 projections must cover the full range")
    exp = nadic_expansion(inst, x)
    if exp.boundary:
        raise BoundaryPoint(f"{x} is a base-{inst.n} boundary point")
    mats = transition_matrices(inst)
    span = inst.span
    vec = [0] * span
    vec[exp.integer_part - inst.proj_min] = 1
    for j in exp.digits(k):
        rows = mats[j].entries
        vec = [
            sum(vec[u] * rows[u][v] for u in range(span)) for v in range(span)
        ]
    return tuple(vec)


class SliceState(NamedTuple):
    """Multiset of surviving chain offsets at one depth.

    Offset of a chain = n^depth * x - (weighted digit prefix); a chain
    survives while its offset stays inside [proj_min, proj_max] (closed:
    slices through a cube face do meet the cube).  Offsets are multiples of
    1/scale, where scale is the denominator of x, so ``pairs`` holds each
    distinct offset as the integer scale * offset with the number of chains
    at it, sorted by offset."""

    pairs: tuple[tuple[int, int], ...]
    scale: int
    depth: int

    @property
    def cardinality(self) -> int:
        return sum([m for _, m in self.pairs])

    def support(self) -> tuple[int, ...]:
        """The distinct scaled offsets, ascending."""
        return tuple([a for a, _ in self.pairs])


def initial_state(inst: ProblemInstance, x: Fraction) -> SliceState:
    x = Fraction(x)
    if not inst.proj_min <= x <= inst.proj_max:
        raise OutOfRange(f"{x} outside [{inst.proj_min}, {inst.proj_max}]")
    return SliceState(pairs=((x.numerator, 1),), scale=x.denominator, depth=0)


def _scaled_weights(inst: ProblemInstance, q: int) -> list[tuple[int, int]]:
    """(q * cube weight, number of cubes of that weight)."""
    return [(q * w, count) for w, count in inst.cube_weights.items()]


def _step(pairs, n: int, weights, lo: int, hi: int) -> dict[int, int]:
    """One digit on (scaled offset, multiplicity) pairs: the chains at
    offset a branch into the cubes whose closed projection interval contains
    it, that is to n * a - q * w inside [lo, hi].  Chains sharing an offset
    branch alike, so each pair is advanced once.  Returns the children as
    scaled offset -> multiplicity, unordered."""
    children: dict[int, int] = {}
    get = children.get
    for a, m in pairs:
        base = n * a
        for qw, count in weights:
            v = base - qw
            if lo <= v <= hi:
                children[v] = get(v, 0) + m * count
    return children


def advance_state(inst: ProblemInstance, state: SliceState) -> SliceState:
    """One digit of depth: each chain branches into the cubes whose closed
    projection interval contains its offset."""
    q = state.scale
    children = _step(
        state.pairs,
        inst.n,
        _scaled_weights(inst, q),
        q * inst.proj_min,
        q * inst.proj_max,
    )
    return SliceState(
        pairs=tuple(sorted(children.items())), scale=q, depth=state.depth + 1
    )


@dataclass(frozen=True)
class CycleCertificate:
    start_depth: int
    period: int
    cardinality_before: int
    cardinality_after: int


@dataclass(frozen=True)
class CardResult:
    """Outcome of exact counting: Finite(r), Infinite, or budget exhaustion.

    Finite carries a proved cycle of constant cardinality; Infinite carries a
    support recurrence whose multiset strictly grew.
    """

    verdict: str  # "Finite" | "Infinite" | "ExceedsBudget"
    count: int | None
    depth_reached: int
    certificate: CycleCertificate | None

    @property
    def is_finite(self) -> bool:
        return self.verdict == "Finite"


# Whether an instance meets exact counting's hypotheses, decided on its first
# query; an entry goes with its instance.
_HYPOTHESES: WeakKeyDictionary[ProblemInstance, bool] = WeakKeyDictionary()


def _meets_hypotheses(inst: ProblemInstance) -> bool:
    ok = _HYPOTHESES.get(inst)
    if ok is None:
        ok = covering_condition(inst) and all(strong_separation(inst))
        _HYPOTHESES[inst] = ok
    return ok


def exact_card(
    inst: ProblemInstance,
    x: Fraction | int,
    budget: int = DEFAULT_BUDGET,
    max_depth: int | None = None,
) -> CardResult:
    """Exact number of representations of x, via the slice-state automaton.

    Requires the covering condition (counts are then nondecreasing in depth)
    and strong separation for every factor (depth-k cubes are then pairwise
    disjoint, so surviving-cube counts converge to the solution count).
    ``budget`` must be at least 1 and ``max_depth`` at least 0.
    """
    if budget < 1:
        raise OutOfRange(f"budget must be >= 1, got {budget}")
    if max_depth is not None and max_depth < 0:
        raise OutOfRange(f"max_depth must be >= 0, got {max_depth}")
    x = Fraction(x)
    if not _meets_hypotheses(inst):
        raise HypothesisViolated(
            "exact counting needs the covering condition and strong separation"
        )
    pre, per = _expansion_lengths(inst, x)
    if max_depth is None:
        max_depth = 64 * (pre + per)
    n, q = inst.n, x.denominator
    lo, hi = q * inst.proj_min, q * inst.proj_max
    weights = _scaled_weights(inst, q)
    # the state at `depth`: the pairs of initial_state advanced depth times
    pairs: tuple[tuple[int, int], ...] = ((x.numerator, 1),)
    card, depth = 1, 0
    seen_exact: dict[tuple, int] = {}
    seen_support: dict[tuple, tuple[int, int]] = {}
    while True:
        phase = depth if depth < pre else pre + (depth - pre) % per
        start = seen_exact.setdefault((phase, pairs), depth)
        if start != depth:
            return CardResult(
                verdict="Finite",
                count=card,
                depth_reached=depth,
                certificate=CycleCertificate(
                    start_depth=start,
                    period=depth - start,
                    cardinality_before=card,
                    cardinality_after=card,
                ),
            )
        support = tuple([a for a, _ in pairs])
        depth0, card0 = seen_support.setdefault((phase, support), (depth, card))
        if card > card0:
            return CardResult(
                verdict="Infinite",
                count=None,
                depth_reached=depth,
                certificate=CycleCertificate(
                    start_depth=depth0,
                    period=depth - depth0,
                    cardinality_before=card0,
                    cardinality_after=card,
                ),
            )
        if card > budget or depth >= max_depth:
            return CardResult(
                verdict="ExceedsBudget",
                count=card,
                depth_reached=depth,
                certificate=None,
            )
        children = _step(pairs, n, weights, lo, hi)
        pairs = tuple(sorted(children.items()))
        card = sum(children.values())
        depth += 1


def lyapunov_estimate(
    inst: ProblemInstance, samples: int, depth: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of the growth exponent of random digit-matrix
    products, normalised by log n (the almost-sure slice dimension under the
    covering condition).

    Each sample draws a uniform starting unit offset and a uniform digit
    string, then averages log ||e_i T_{d1} ... T_{dk}||_1 / (k log n) with
    running renormalisation.  Samples are seeded in fixed-size blocks from
    (seed, block index), so the result depends only on (seed, samples,
    depth), regardless of how the work would be partitioned.
    """
    if not covering_condition(inst):
        raise CoveringRequired("the depth-1 projections must cover the full range")
    if samples <= 0 or depth <= 0:
        raise OutOfRange("samples and depth must be positive")
    # past either cap, one block's int64 digits or the per-sample array pass 128 MiB
    if depth > 2**16 or samples > 2**24:
        raise TooLarge(f"need depth <= 2**16, samples <= 2**24; got {depth}, {samples}")
    # imported here, the one place that needs it, to keep `import slicekit` light
    import numpy as np

    mats = np.array(
        [[list(row) for row in m.entries] for m in transition_matrices(inst)],
        dtype=np.float64,
    )
    span = inst.span
    block_size = 256
    per_sample = np.empty(samples, dtype=np.float64)
    for block_start in range(0, samples, block_size):
        block = min(block_size, samples - block_start)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(block_start,))
        )
        starts = rng.integers(0, span, size=block)
        digits = rng.integers(0, inst.n, size=(block, depth))
        vecs = np.zeros((block, span), dtype=np.float64)
        vecs[np.arange(block), starts] = 1.0
        acc = np.zeros(block, dtype=np.float64)
        for k in range(depth):
            step = mats[digits[:, k]]
            vecs = np.einsum("bu,buv->bv", vecs, step)
            norms = vecs.sum(axis=1)
            acc += np.log(norms)
            vecs /= norms[:, None]
        per_sample[block_start : block_start + block] = acc / (depth * log(inst.n))
    estimate = float(per_sample.mean())
    if samples > 1:
        stderr = float(per_sample.std(ddof=1) / samples**0.5)
    else:
        stderr = 0.0
    return estimate, stderr
