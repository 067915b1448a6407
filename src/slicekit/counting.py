"""Exact representation counting for rational points.

Counts come from the slice-state automaton: the exact multiset of
per-chain offsets n^k * x - (weighted digit prefix), advanced one digit at
a time.  For x = p/q every depth-k offset is (r + q * t) / q, where the
remainder r = n^k * p mod q is shared by all chains and t is an integer of
[proj_min, proj_max].  One digit sends r to n * r mod q, reading the digit
d = n * r // q, and t to d + n * t - w for each cube weight w; so the
transitions depend only on the instance, on d, on whether the new
remainder is 0 and on t.  The multiset is kept as one int packing the
number of chains at each t into a fixed-width field, with a bitmask of the
t that hold chains: a digit costs one int multiply-add, one mask OR and
one row-sum product per live t (at most span + 1), whatever the number of
chains.  It also covers boundary points (x = q1/n^q2), where chains are
kept alive by closed-interval containment.

The paper's matrix route, where the number of depth-k product cubes
meeting the slice at a non-boundary x is the 1-norm of
e_i T_{j1} ... T_{jk} (i the integer part and j1 j2 ... the base-n digits
of x), lives in the tests as the automaton's cross-check, with the digits
written out by long division.

``exact_card`` does each piece of work at the level it depends on: per
instance, covering and strong separation, decided once in a record kept
for that instance object alone, which goes when it does (an equal instance
has its own); per field width, in the same record,
the digit tables (per digit, boundary flag and t: the packed children of
one chain from its lowest child on, where they start, their support mask
and their number, so that a table grows with the span, refused past
``_TABLE_ROWS`` rows before any row is built) and the transition
cache, which keeps each step ``_advance`` took (a table entry and a packed
vector give the next vector, its mask and its cardinality) and is emptied
when it would hold more than ``_STEP_CACHE_BITS`` bits; and per query, the
range check, the expansion's preperiod and period lengths (no digit is
written out, since the automaton reads x itself) and one cache lookup per
digit, with one ``_advance`` call on a miss.  ``lyapunov_estimate`` and
``analysis.Analysis`` read the hypotheses from the same record.
``exact_card`` is the automaton's one public entry point; ``digit_table``
hands its tables out: the multiplicity search steps its
chain-count vectors e_i T_{j1} ... T_{jk} on the open rows (a row of digit
matrix T_j is the children of one chain under digit j) with
``_advance_pairs``, the same row arithmetic on a vector unpacked once into
its (field, count) pairs, since it steps each vector under every digit, and
with no cache, since its vectors are distinct, so one search reads one
table, at max_r's field width.  The search counts no point with
``exact_card``: ``_path_counts`` counts every point t + r/q of one
denominator q in one pass, as the infinite walks of the graph that the
same step rule puts on the pairs (r, t), cut at a cap, and the search
reads its integer points and one-digit points at q = n.  ``exact_card``
stays the one counter of a single point, and each is the other's
reference in the tests.

For rational x the automaton state space is finite (one remainder of q and
at most span + 1 distinct offsets per state), so recurrences are real
cycles.  An exact recurrence of (remainder, offset multiset) proves the
count stays constant; a recurrence of (remainder, offset support) with a
strictly larger multiset proves unbounded growth, because under the
covering condition every surviving chain keeps at least one child, so the
surplus mass reproduces itself every cycle.  Two depths share a remainder
exactly when they share a digit phase (both in the period, a multiple of
its length apart), so the remainder keys these recurrences as the phase
would, with no phase worked out, and the packed int and the mask key the
multiset and the support one-to-one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from weakref import finalize

from .errors import CoveringRequired, HypothesisViolated, OutOfRange, TooLarge
from .instance import ProblemInstance
from .lattice import children, covering_condition, open_children, strong_separation

DEFAULT_BUDGET = 4096

# Most digits an expansion may take, preperiod and repeating period together:
# ``exact_card`` counts no point whose expansion is longer.
_EXPANSION_CAP = 2**20


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


def expansion_value(inst_n: int, integer_part: int, preperiod, period) -> Fraction:
    """Rational value of an eventually periodic expansion, formed as one
    Fraction: with the preperiod's L digits appended to the integer part as
    the integer head, and the period's P digits read as the integer num,
    the value is head / n^L + num / (n^L * (n^P - 1))."""
    n = inst_n
    head = integer_part
    for d in preperiod:
        head = head * n + d
    num = 0
    for d in period:
        num = num * n + d
    if not num:
        return Fraction(head, n ** len(preperiod))
    den = n ** len(period) - 1
    return Fraction(head * den + num, n ** len(preperiod) * den)


# Most bits one instance's transition cache holds, over all its field
# widths.  An entry counts the bits of its two packed vectors and of the
# support mask it stores, and _ENTRY_BITS for the Python objects that hold
# them; a cache that would pass the bound is emptied first.  At span 200001
# and the default budget one packed vector holds about 3 million bits.
_STEP_CACHE_BITS = 2**26
_ENTRY_BITS = 2048


class _Record:
    """What counting and analysis derive from one instance: the covering
    condition and the per-factor strong-separation flags, decided once when
    the record is made; the digit tables by field width, each built on
    first use (``digit_table``); and the transition caches by field width
    (``transitions``), with the bits they hold, ``step_bits``.  Nothing in
    it refers to the instance."""

    __slots__ = ("covering", "ssc", "tables", "steps", "step_bits")

    def __init__(self, inst: ProblemInstance) -> None:
        self.covering = covering_condition(inst)
        self.ssc = tuple(strong_separation(inst))
        self.tables: dict[int, tuple] = {}
        self.steps: dict[int, tuple] = {}
        self.step_bits = 0

    def table(self, inst: ProblemInstance, bits: int) -> tuple:
        table = self.tables.get(bits)
        if table is None:
            table = self.tables[bits] = _build_table(inst, bits)
        return table

    def transitions(self, inst: ProblemInstance, bits: int) -> tuple:
        """The transition cache at field width ``bits``, laid out as the
        table: ``steps[d][closed]`` maps a packed vector to what
        ``_advance`` makes of it on ``table[d][closed]``, since the mask and
        the cardinality are functions of the vector."""
        steps = self.steps.get(bits)
        if steps is None:
            steps = self.steps[bits] = tuple(({}, {}) for _ in range(inst.n))
        return steps

    def keep(self, known: dict, vec: int, step: tuple[int, int, int]) -> None:
        """Store ``step`` as ``known[vec]``, first emptying every transition
        cache of the record, in place, if it would pass _STEP_CACHE_BITS; a
        step that alone passes it is not stored."""
        size = vec.bit_length() + step[0].bit_length() + step[1].bit_length() + _ENTRY_BITS
        if self.step_bits + size > _STEP_CACHE_BITS:
            for steps in self.steps.values():
                for by_flag in steps:
                    for cache in by_flag:
                        cache.clear()
            self.step_bits = 0
            if size > _STEP_CACHE_BITS:
                return
        known[vec] = step
        self.step_bits += size


# One record per instance object, keyed on its id: an entry goes when its
# instance does, and an equal instance has its own.
_RECORDS: dict[int, _Record] = {}


def _record(inst: ProblemInstance) -> _Record:
    rec = _RECORDS.get(id(inst))
    if rec is None:
        rec = _RECORDS[id(inst)] = _Record(inst)
        finalize(inst, _RECORDS.pop, id(inst), None)
    return rec


def digit_table(inst: ProblemInstance, bits: int) -> tuple:
    """The instance's digit table at field width ``bits`` (see
    ``_build_table``), built on first use and kept in the instance's
    record."""
    return _record(inst).table(inst, bits)


def _row(kids: list[tuple[int, int]], bits: int, lo: int) -> tuple[int, int, int, int, int]:
    """The table entry of one chain whose children are ``kids``, (t',
    count) pairs ascending in t', at fields j = t' - ``lo``: the counts
    packed from the lowest child j0 on, the shift ``bits * j0``, the
    support mask from j0 on, j0 and the number of children."""
    if not kids:
        return 0, 0, 0, 0, 0
    c0 = kids[0][0]
    row = mask = total = 0
    for c, count in kids:
        row |= count << bits * (c - c0)
        mask |= 1 << c - c0
        total += count
    return row, bits * (c0 - lo), mask, c0 - lo, total


# Most rows a digit table may hold, n * (span + 1), each an entry of both
# flags.  A row costs about 190 bytes: on n=3, {0,2}^2, `count --x 1/7`
# peaks at 123 MiB for 600006 rows (span 200001) and 201 MiB for 1048572,
# just under the cap, inside 512 MiB with room for instances that cost
# more; with no cap it peaked at 385 MiB for 2097156 rows.
_TABLE_ROWS = 2**20


def _build_table(inst: ProblemInstance, bits: int) -> tuple:
    """The digit table at field width ``bits``: ``table[d][closed][t -
    proj_min]``, for each t in [proj_min, proj_max], is the ``_row`` entry
    of one chain at t, whose children are ``lattice.children(inst, d, t)``
    when the new remainder is 0 (``closed``), else their open part, row t
    of T_d (``lattice.open_children``); child t' is at j = t' - proj_min.
    A row starts at its lowest child, so the table grows with the span, not
    with its square, and the two flags share each entry with no child at
    proj_max.  Raises TooLarge, before any row is built, past _TABLE_ROWS
    rows."""
    if inst.n * (inst.span + 1) > _TABLE_ROWS:
        raise TooLarge(
            f"the digit table has {inst.n * (inst.span + 1)} rows, more than {_TABLE_ROWS}"
        )
    lo, hi = inst.proj_min, inst.proj_max
    table = []
    for d in range(inst.n):
        opened, closed = [], []
        for t in range(lo, hi + 1):
            kids = children(inst, d, t)
            entry = _row(kids, bits, lo)
            closed.append(entry)
            cut = open_children(inst, kids)
            opened.append(entry if cut is kids else _row(cut, bits, lo))
        table.append((tuple(opened), tuple(closed)))
    return tuple(table)


def _path_counts(inst: ProblemInstance, q: int, cap: int) -> list[list[int]]:
    """Card(S_x) at every point x = t + r/q, 0 <= r < q and t in [proj_min,
    proj_max], capped: ``counts[r][t - proj_min]`` is the count when it is at
    most ``cap``, else cap + 1, infinite counts included.

    The points form a graph on the pairs (r, t) under the automaton's step:
    digit d = n*r // q sends t to each child t' of ``lattice.children(inst,
    d, t)``, c_w times, at remainder n*r mod q, cut by ``open_children``
    when that remainder is not 0, as in the table's rows.  A count is the
    number of infinite walks from its vertex, found for every vertex in one
    pass over the components in Tarjan's emission order, which puts each
    after every component it reaches: a cycle of weight-1 edges that no
    edge leaves has one walk from each member; any other cycling component
    has infinitely many, since under the covering condition, which the
    caller has checked, every point of the range has a child, so every walk
    goes on; and a vertex on no cycle has the weighted sum over its edges,
    which is at least each child's count, so a child cut at cap + 1 cuts
    it too.  A point past proj_max (t = proj_max, r > 0) is in no edge."""
    # imported here so that this module's imports load no graphs: a command
    # that only checks or counts need not
    from .graphs import _tarjan

    n, lo, width = inst.n, inst.proj_min, inst.span + 1
    succ, weights = [], []
    for r in range(q):
        d, step = divmod(n * r, q)
        for t in range(lo, lo + width):
            kids = children(inst, d, t)
            kids = open_children(inst, kids) if step else kids
            succ.append([step * width + c - lo for c, _ in kids])
            weights.append([w for _, w in kids])
    counts = [0] * len(succ)
    for comp in _tarjan(succ):
        v = comp[0]
        if len(comp) > 1 or v in succ[v]:
            value = 1 if all(weights[u] == [1] for u in comp) else cap + 1
            for u in comp:
                counts[u] = value
        else:
            counts[v] = min(cap + 1, sum([w * counts[u] for u, w in zip(succ[v], weights[v])]))
    return [counts[r * width:(r + 1) * width] for r in range(q)]


def _advance(entry: tuple, bits: int, vec: int, mask: int) -> tuple[int, int, int]:
    """One digit on a packed vector: the chains at each t of ``mask`` take
    the table row of t, times their number, shifted to its lowest child.
    Returns the children's packed vector, support mask and cardinality;
    every child field must fit in ``bits`` bits."""
    field = (1 << bits) - 1
    out = out_mask = card = 0
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        mask ^= low
        m = vec >> bits * i & field
        row, shift, kids, base, total = entry[i]
        out += m * row << shift
        out_mask |= kids << base
        card += m * total
    return out, out_mask, card


def _advance_pairs(entry: tuple, pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """``_advance`` on a vector already unpacked into its (field, count)
    pairs, ascending: the children's packed vector and support mask.  A
    caller that steps one vector under every digit unpacks it once and
    walks no mask per digit; ``exact_card`` steps each vector once and
    keeps ``_advance``."""
    out = out_mask = 0
    for i, m in pairs:
        row, shift, kids, base, _ = entry[i]
        out += m * row << shift
        out_mask |= kids << base
    return out, out_mask


# Both result classes are frozen dataclasses (``dataclasses.replace``
# rebuilds them) whose own ``__init__`` writes ``__dict__``, as
# cached_property does, rather than one frozen ``__setattr__`` per field:
# a result is built in about half the time.  Each ``__init__`` lists the
# fields again, so a field added to the class must be added there too.


@dataclass(frozen=True)
class CycleCertificate:
    start_depth: int
    period: int
    cardinality_before: int
    cardinality_after: int

    def __init__(self, start_depth, period, cardinality_before, cardinality_after) -> None:
        self.__dict__.update(
            start_depth=start_depth,
            period=period,
            cardinality_before=cardinality_before,
            cardinality_after=cardinality_after,
        )


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

    def __init__(self, verdict, count, depth_reached, certificate) -> None:
        self.__dict__.update(
            verdict=verdict, count=count, depth_reached=depth_reached, certificate=certificate
        )

    @property
    def is_finite(self) -> bool:
        return self.verdict == "Finite"


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
    ``budget`` must be at least 1 and ``max_depth`` at least 0; the count
    stops with ExceedsBudget past ``budget`` chains or at ``max_depth``
    digits, by default 64 * (preperiod + period) for the base-n expansion
    of x.  Raises TooLarge, before any digit, when the preperiod and the
    period together pass _EXPANSION_CAP digits.
    """
    if budget < 1:
        raise OutOfRange(f"budget must be >= 1, got {budget}")
    if max_depth is not None and max_depth < 0:
        raise OutOfRange(f"max_depth must be >= 0, got {max_depth}")
    if not isinstance(x, Fraction):
        x = Fraction(x)
    rec = _record(inst)
    if not (rec.covering and all(rec.ssc)):
        raise HypothesisViolated(
            "exact counting needs the covering condition and strong separation"
        )
    pre, per = _expansion_lengths(inst, x)
    if max_depth is None:
        max_depth = 64 * (pre + per)
    n, q, lo = inst.n, x.denominator, inst.proj_min
    # the loop steps only while card <= budget, so no child field passes
    # budget * cube_count
    bits = (budget * inst.cube_count).bit_length()
    table = rec.table(inst, bits)
    steps = rec.transitions(inst, bits)
    # the state at `depth`: every chain offset is (r + q * t) / q, with the
    # remainder r = n^depth * p mod q shared by all chains; vec packs the
    # number of chains at each t into the field at t - proj_min, and mask
    # marks the t that hold chains
    t, r = divmod(x.numerator, q)
    vec, mask = 1 << bits * (t - lo), 1 << (t - lo)
    card, depth = 1, 0
    seen_exact: dict[tuple[int, int], int] = {}
    seen_support: dict[tuple[int, int], tuple[int, int]] = {}
    while True:
        start = seen_exact.setdefault((r, vec), depth)
        if start != depth:
            cert = CycleCertificate(start, depth - start, card, card)
            return CardResult("Finite", card, depth, cert)
        depth0, card0 = seen_support.setdefault((r, mask), (depth, card))
        if card > card0:
            cert = CycleCertificate(depth0, depth - depth0, card0, card)
            return CardResult("Infinite", None, depth, cert)
        if card > budget or depth >= max_depth:
            return CardResult("ExceedsBudget", card, depth, None)
        d, r = divmod(n * r, q)
        known = steps[d][not r]
        step = known.get(vec)
        if step is None:
            step = _advance(table[d][not r], bits, vec, mask)
            rec.keep(known, vec, step)
        vec, mask, card = step
        depth += 1


# Most float64 entries ``lyapunov_estimate`` may hold in dense arrays: the n
# span x span digit matrices, filled in place from ``lattice.children``, and,
# per digit step, one span x span matrix per sample of a block.  These arrays
# are its peak; 2**24 floats are 128 MiB.  n=3 with blocks of 256 samples
# fits up to span 254, and span 601 would ask for 705 MiB per step.
_LYAPUNOV_FLOATS = 2**24


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
    if not _record(inst).covering:
        raise CoveringRequired("the depth-1 projections must cover the full range")
    if samples <= 0 or depth <= 0:
        raise OutOfRange("samples and depth must be positive")
    if seed < 0:  # numpy's SeedSequence takes non-negative entropy only
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    # past either cap, one block's int64 digits or the per-sample array pass 128 MiB
    if depth > 2**16 or samples > 2**24:
        raise TooLarge(f"need depth <= 2**16, samples <= 2**24; got {depth}, {samples}")
    span = inst.span
    block_size = 256
    # the n dense digit matrices and one block's matrices per step, as floats
    floats = (inst.n + min(samples, block_size)) * span**2
    if floats > _LYAPUNOV_FLOATS:
        raise TooLarge(
            f"the dense digit matrices and one block's products need {floats} floats, "
            f"more than {_LYAPUNOV_FLOATS}"
        )
    # imported here, the one place that needs it, to keep `import slicekit` light
    import numpy as np

    # the digit matrices (``spectral.transition_matrices``), with no int copy
    lo, hi = inst.proj_min, inst.proj_max
    mats = np.zeros((inst.n, span, span), dtype=np.float64)
    for j in range(inst.n):
        for u in range(lo, hi):
            for v, count in open_children(inst, children(inst, j, u)):
                mats[j, u - lo, v - lo] = count
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
        # each step's matrices, written in place so one block's set is live
        step = np.empty((block, span, span), dtype=np.float64)
        for k in range(depth):
            # "clip" leaves ``out`` unbuffered; every digit is below n
            np.take(mats, digits[:, k], axis=0, out=step, mode="clip")
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
