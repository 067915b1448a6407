"""Dimension and measure analysis of the multiplicity sets.

* unique-representation set: its dimension is log(rho)/log(n) for the
  spectral radius rho of the restricted interval graph; the measure class
  follows from how many maximal-radius components the graph has.
* higher multiplicities r: a breadth-first closure over the count-matrix
  products e_i T_{j1} ... T_{jk} finds every realisable chain-count vector
  with 1-norm <= max_r on the instance's digit table, the one
  ``exact_card`` reads: each vector is unpacked once into its (offset,
  count) pairs and stepped under every digit by ``counting._advance_pairs``,
  and kept sparse, as its counts on its support, in the plain-tuple record
  (counts, norm, integer_part, word, support); a vector of norm r together
  with a residue h whose aligned interval subset sits inside the uniquely
  covered collection and reaches a cycling component of the subset graph
  certifies that r occurs beyond the countable base-n grid.  Values of r
  realised only on that grid are found separately, from one pass of
  ``counting._path_counts`` over the points of denominator n: it counts
  every integer point and every one-digit point t + j/n, the tail of digit
  j at t, and the point that ends a vector's word with digit j counts the
  vector's counts times those tails, summed over its support.

Every answer for one instance is read from an ``Analysis`` context.  It
computes each derived object on first use and keeps it: the interval
census and the xi types read from it, the restricted graph, built by
``graphs.build_congruent_graph`` as the subset graph on the singletons and
decomposed with it, the blocks that every restricted-graph verdict reads,
and the U1 report; covering and separation it reads from the instance's
counting record, which decides them once; domination it decides once per
distinct block, with one ``graphs.reachable`` search from the components
whose blocks compare at least that one.  No reach set of all components
is kept: whether one maximal component of U1 reaches another is read off
the decomposition's ``cycles``, the cycling components each one reaches.
The context forms the blocks of both graphs: a block is a component's
sparse rows, each member's (column, 1) pairs, with its certified radius,
certified once per distinct rows, whichever graph reaches it first.  A
subset-graph block is formed where it is read: ``dim_ur`` forms those of
the cycling components that r's routes reach, and the report those it
prints; the search forms none.  The subset graph's components of
singletons are restricted-graph components with the same rows, so a
report certifies each of them once, whichever graph asks first.
The multiplicity search does its bookkeeping per distinct support of its
vectors, not per vector: it computes each support's aligned subsets once,
builds the subset graph once with ``graphs.build_congruent_graph`` on the
context's xi types, only the part that they reach, since nothing reads
any other subset, and asks it once for the cycling components each
subset reaches; it builds no restricted graph.  Each support's passing
(residue, subset, cycles) triples and the grid digits whose tails are
within max_r on all of it are kept as exact tuples, which the cyclic
collector can untrack, and every vector reads them; the grid scan stops
once every r of 1..max_r has its first countable example, and reads no
vector when every digit's tail passes max_r on every working interval.  It
then lists the routes of each r once, in canonical order: a norm-r vector,
then a residue whose aligned subset reaches a cycling component, each the
plain tuple (vector, residue, subset, cycles); ``RSearchResult`` says why
records and routes are not named tuples.
``dim_u1`` reads a new context's ``u1`` and ``enumerate_achievable_r``
runs ``Analysis.search`` on a new context; the report searches on the
context it has already typed.  The search takes the interval census before
its vector closure, so an oversized range is refused before any vector is
formed.  The status of r, whose witness is its first route, ``dim_ur`` and
``witness_ur`` read that one route list of a multiplicity search,
``RSearchResult``, which also carries the context it ran on (``analysis``)
and the subset graph.  ``dim_ur`` answers an r's dimension, countable flag
and measure class in one ``UrReport``, as ``dim_u1`` answers U1's: dim 0
and no measure class for an r found only on the grid.  The search stores a
status only for an r it reaches; ``RSearchResult.status`` reads any other
r of 1..max_r as NotReachable.

Every radius verdict compares two blocks, each a certified radius with its
rows, with ``spectral.compare_radii``, exactly and on strongly connected
components only (or on a 1x1 integer block; each component's block comes
from ``Analysis.blocks``, whose rows are its cache key): which
components attain rho, whether failing separation is negligible, where the
multiplicity dimension takes its maximum, the countable flag and
domination.  Dimensions are reported as floats, but no decision is taken
from one.  Each witness point is certified by ``exact_card`` before it is
returned, at budget max_r, where the search's grid counts are cut at
max_r + 1: no count falls with depth, so none past max_r can change an
answer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import inf, log, prod
from operator import itemgetter
from typing import NamedTuple

from .counting import (
    _advance_pairs, _path_counts, _record, digit_table, exact_card, expansion_value,
)
from .errors import HypothesisViolated, NoCertifiedWitness, NotAchievable, OutOfRange, TooLarge
from .graphs import CongruentGraph, aligned, build_congruent_graph, reachable
from .instance import ProblemInstance
from .lattice import interval_census, xi_types
# spectral_radius is not called here any more; it stays importable from this
# module because bench/tests/test_harness.py checks that the tracer wraps it
# at this import site.
from .spectral import (  # noqa: F401
    RadiusResult, Rows, block_radius, compare_radii, max_radius, spectral_radius,
)

# Largest max_r a search takes; it bounds the report's r_search, which lists
# a status for every r of 1..max_r.
_MAX_R = 2**20
# Most bits the multiplicity search's vector records may hold together.  A
# record counts the bits of its packed vector and of its support mask, 64
# bits a slot for its word and for its counts and support tuples, and
# _RECORD_BITS for the Python objects that hold them.  Words grow with
# max_r: on n=3, {0,2}^2, (-1, 2) the vectors of norm up to 1000 have words
# of up to 999 digits, so a count of vectors alone does not bound memory.
# A search refused at the bound peaks near 290 MiB there (`dim-ur --r
# 1000000`), and near 450 MiB at the interval cap's edge, (-10922, 10923)
# at max_r 6, the least headroom under 512 MiB; the span-101 report (n=3,
# {0,2}^2, (-50, 51)) holds 2.3 * 10^9 bits and still answers.
_VECTOR_BITS = 3 * 2**30
_RECORD_BITS = 4096

MEASURE_POSITIVE_FINITE = "PositiveFinite"
MEASURE_INFINITE = "Infinite"
MEASURE_POSITIVE_ONLY = "PositiveOnly"
MEASURE_NOT_APPLICABLE = "NotApplicable"
MEASURE_POSITIVE_UNDETERMINED = "PositiveUndetermined"

STATUS_ACHIEVABLE = "Achievable"
STATUS_COUNTABLE = "OnlyOnCountableSet"
STATUS_NOT_REACHABLE = "NotReachable"


# -- unique representations ----------------------------------------------------


class U1Report(NamedTuple):
    rho: RadiusResult
    s: float
    s_lower: float
    s_upper: float
    dim_exact: bool
    s_positive: bool
    measure_class: str
    notes: tuple[str, ...]


def _log_over_log_n(value: float, n: int) -> float:
    if value <= 0.0:
        return -inf
    return log(value) / log(n)


# A block is a (certified radius, rows) pair of one strongly connected
# component, or of a 1x1 integer matrix; every radius verdict compares two.
Block = tuple[RadiusResult, Rows]

# The blocks of a single vertex without and with a loop, shared by every
# single-vertex component of every graph.
_LOOP_BLOCKS: tuple[Block, Block] = (
    (RadiusResult(Fraction(0), Fraction(0), 0.0), ((),)),
    (RadiusResult(Fraction(1), Fraction(1), 1.0), (((0, 1),),)),
)


def _compare(a: Block, b: Block) -> int:
    """The sign of rho(a) - rho(b), exact."""
    return compare_radii(a[0], b[0], a[1], b[1])


def _integer_block(value: int) -> Block:
    """The block [[value]], whose radius is value."""
    rows = (((0, value),),)
    return block_radius(rows), rows


def _top(blocks: tuple[Block, ...] | dict[int, Block], indices) -> int | None:
    """The first of ``indices`` whose block, ``blocks[i]``, has the largest
    radius; None for no indices."""
    best = None
    for i in indices:
        if best is None or _compare(blocks[i], blocks[best]) > 0:
            best = i
    return best


def _separation_negligible(inst: ProblemInstance, ssc_flags, blocks: tuple[Block, ...]) -> bool:
    """Can failing separation still be ignored for the s-measure?

    A factor with two digits at distance 1 lets depth-k cubes touch along
    faces where that coordinate is pinned; the touched slice values then
    fill a set of dimension at most the sum of the other factors' dimensions
    log|A_k|/log n.  Strictly below s = log(rho)/log n, those faces are
    s-null and the measure dichotomy goes through unchanged: the product of
    the other factors' digit counts must be below rho, the largest radius of
    the restricted graph's components, whose ``blocks`` are given.
    """
    sizes = [len(a) for a in inst.digit_sets]
    for i, flag in enumerate(ssc_flags):
        faces = _integer_block(prod(sizes[:i] + sizes[i + 1:]))
        if not flag and not any(_compare(block, faces) > 0 for block in blocks):
            return False
    return True


class Analysis:
    """The derived objects of one instance, each computed at most once."""

    inst: ProblemInstance

    def __init__(self, inst: ProblemInstance) -> None:
        self.inst = inst
        # a component's rows -> its block
        self._certified: dict[Rows, Block] = {}
        # a block's rows -> its domination verdict
        self._dominated: dict[Rows, bool] = {}

    # -- the restricted graph and the unique representations ------------------

    @cached_property
    def census(self) -> list[list[tuple[int, int]]]:
        """The types of every integer interval, ascending u."""
        return interval_census(self.inst)

    @cached_property
    def types(self) -> dict[int, int]:
        """The xi types: u -> its unique type, for every uniquely covered u."""
        return xi_types(self.inst, self.census)

    @cached_property
    def xi(self) -> CongruentGraph:
        """The restricted graph: the subset graph on the singletons, vertex
        v the v-th uniquely covered u ascending."""
        types = self.types
        return build_congruent_graph(types, self.inst.n, [(u,) for u in types])

    @cached_property
    def xi_blocks(self) -> tuple[Block, ...]:
        """The block of each component of the restricted graph."""
        return self.blocks(self.xi.succ, self.xi.scc.components)

    def blocks(self, succ, components) -> tuple[Block, ...]:
        """The block of each of ``components``, strongly connected
        components of the graph whose successor table is ``succ``.  A single
        vertex gets one of the two ``_LOOP_BLOCKS``; a larger component's
        sparse rows, each member's in-component (column, 1) pairs in
        component order, are certified once per distinct rows in this
        context, so a component that the restricted graph and the subset
        graph share is certified once, whichever asks first."""
        certified = self._certified
        out = []
        for comp in components:
            if len(comp) == 1:
                out.append(_LOOP_BLOCKS[comp[0] in succ[comp[0]]])
                continue
            # one (column, 1) pair per member, shared: a pointer per edge
            pair = {v: (i, 1) for i, v in enumerate(comp)}
            rows = tuple(tuple([pair[w] for w in succ[v] if w in pair]) for v in comp)
            block = certified.get(rows)
            if block is None:
                block = certified[rows] = block_radius(rows), rows
            out.append(block)
        return tuple(out)

    @property
    def covering(self) -> bool:
        return _record(self.inst).covering

    @property
    def ssc(self) -> tuple[bool, ...]:
        return _record(self.inst).ssc

    @cached_property
    def u1(self) -> U1Report:
        inst = self.inst
        covering = self.covering
        ssc_flags = self.ssc
        ssc = all(ssc_flags)
        decomposition, blocks = self.xi.scc, self.xi_blocks
        # M is block-triangular, so rho is the largest block radius
        rho = max_radius(rr for rr, _ in blocks)
        n = inst.n
        s = _log_over_log_n(rho.estimate, n)
        s_lower = _log_over_log_n(float(rho.lower), n)
        s_upper = _log_over_log_n(float(rho.upper), n)
        # exact test for rho > 1: some component carries more edges than
        # vertices (two overlapping cycles)
        s_positive = any(sum(map(len, rows)) > len(rows) for _, rows in blocks)
        notes = []
        if not covering:
            notes.append("covering condition fails: s is only a lower bound for the dimension")
        dichotomy_ok = ssc or _separation_negligible(inst, ssc_flags, blocks)
        if not ssc and dichotomy_ok:
            notes.append(
                "strong separation fails but cube faces have dimension below s; "
                "the measure dichotomy still applies"
            )
        if not dichotomy_ok:
            notes.append("strong separation fails: the measure dichotomy does not apply")
        if covering and dichotomy_ok and s_positive:
            measure = MEASURE_POSITIVE_FINITE
            top = blocks[_top(blocks, range(len(blocks)))]
            # a component attains rho when no other one compares greater
            maximal = [i for i, block in enumerate(blocks) if _compare(block, top) == 0]
            notes.extend(f"component {i} attains the full radius (exact)" for i in maximal)
            # the top radius is above 1, so every maximal component has two
            # or more vertices and cycles: j is in cycles[i] when i reaches j
            for i in maximal:
                for j in maximal:
                    if i != j and j in decomposition.cycles[i]:
                        measure = MEASURE_INFINITE
        elif s_positive:
            measure = MEASURE_POSITIVE_ONLY
        else:
            measure = MEASURE_NOT_APPLICABLE
        return U1Report(
            rho=rho,
            s=s,
            s_lower=s_lower,
            s_upper=s_upper,
            dim_exact=covering,
            s_positive=s_positive,
            measure_class=measure,
            notes=tuple(notes),
        )

    def dominated(self, block: Block) -> bool:
        """Is every working interval reachable, inside the restricted
        interval graph, from a component whose radius is at least that of
        ``block``, a (certified radius, rows) pair?  Decided once per
        distinct rows."""
        known = self._dominated.get(block[1])
        if known is None:
            known = self._dominated[block[1]] = self._decide_dominated(block)
        return known

    def _decide_dominated(self, block: Block) -> bool:
        inst, types, xi = self.inst, self.types, self.xi
        if not types:
            return False
        blocks = zip(xi.scc.components, self.xi_blocks)
        sources = [comp[0] for comp, other in blocks if _compare(other, block) >= 0]
        covered = {types[xi.vertices[v][0]] for v in reachable(xi.succ, sources)}
        return set(range(inst.proj_min, inst.proj_max)) <= covered

    def search(self, max_r: int) -> RSearchResult:
        """Classify every multiplicity 1..max_r, on this context's xi types.

        Achievable: some product vector of norm r admits a residue h whose
        aligned subset lies in the uniquely covered collection and reaches a
        cycling component of the subset graph (so r occurs off the base-n
        grid, on an uncountable set unless all reachable cycles are bare).
        OnlyOnCountableSet: not achievable, but either a norm-r vector is
        reachable (no residue passes) or some terminating expansion realises
        r: an integer, or a reachable vector then one nonzero digit, whose
        count ``counting._path_counts`` gives.
        NotReachable: neither route produces r (not stored; ``status`` reads
        it).
        """
        inst = self.inst
        if max_r < 1:
            raise OutOfRange(f"max_r must be >= 1, got {max_r}")
        if max_r > _MAX_R:
            raise TooLarge(f"max_r must be <= {_MAX_R}, got {max_r}")
        if not self.covering:
            raise HypothesisViolated("covering condition fails")
        if not all(self.ssc):
            raise HypothesisViolated("strong separation fails for some factor")
        # the census refuses an oversized range before the vector closure
        types = self.types
        vectors = _reachable_vectors(inst, max_r)
        n = inst.n

        # countable-grid realisations: an integer, or a reachable vector, then
        # one nonzero digit j, then the integer points that digit's chains land
        # on; layers[0] counts the integers and layers[j] the tails of digit j,
        # at their points t + j/n, each capped at max_r + 1
        layers = _path_counts(inst, n, max_r)
        lo = inst.proj_min
        countable: dict[int, Fraction] = {}
        for p, g in enumerate(layers[0], lo):
            if 1 <= g <= max_r and g not in countable:
                countable[g] = Fraction(p)
        # blocked[j]: the working intervals p where digit j's tail passes max_r,
        # so that any total over p does; open_digits[support]: the digits whose
        # tails are within max_r on the whole support, once per support
        blocked = {
            j: {p for p in range(lo, inst.proj_max) if layers[j][p - lo] > max_r}
            for j in range(1, n)
        }
        # a digit blocked on every working interval is open on no support, so
        # with no other digit no vector can give a grid example
        live = [j for j in blocked if len(blocked[j]) < inst.span]
        open_digits: dict[tuple[int, ...], tuple[int, ...]] = {}
        for counts, _, i, word, support in vectors if live else ():
            # every later vector could only repeat an r that has its example
            if len(countable) == max_r:
                break
            digits = open_digits.get(support)
            if digits is None:
                digits = open_digits[support] = tuple(
                    [j for j in live if blocked[j].isdisjoint(support)]
                )
            for j in digits:
                tail = layers[j]
                total = sum([c * tail[p - lo] for p, c in zip(support, counts)])
                if 1 <= total <= max_r and total not in countable:
                    countable[total] = expansion_value(n, i, word + (j,), (0,))

        # each support's aligned subsets, the subset graph they reach, its cycles,
        # and each support's passing (residue, subset, cycles) triples
        supports = {support for _, _, _, _, support in vectors}
        subsets = {s: tuple(aligned(types, n, [n * p for p in s])) for s in supports}
        seeds = {m for pairs in subsets.values() for _, m in pairs}
        graph = build_congruent_graph(types, n, seeds)
        cycles = {m: tuple(sorted(graph.cycles_reached(m))) for m in seeds}
        passing = {
            s: tuple([(h, m, cycles[m]) for h, m in pairs if cycles[m]])
            for s, pairs in subsets.items()
        }
        routes: dict[int, list[tuple]] = {}
        for rv in vectors:
            _, norm, _, _, support = rv
            triples = passing[support]
            if triples:
                routes.setdefault(norm, []).extend([(rv, *t) for t in triples])
        statuses: dict[int, RStatus] = {}
        for r in sorted({norm for _, norm, _, _, _ in vectors} | countable.keys()):
            if r in routes:
                statuses[r] = RStatus(r, STATUS_ACHIEVABLE, routes[r][0], None)
            else:
                statuses[r] = RStatus(r, STATUS_COUNTABLE, None, countable.get(r))
        return RSearchResult(
            max_r=max_r,
            vectors=vectors,
            statuses=statuses,
            analysis=self,
            graph=graph,
            routes={r: tuple(routes[r]) for r in sorted(routes)},
        )


def dim_u1(inst: ProblemInstance) -> U1Report:
    """Dimension of the set of uniquely represented points, log(rho)/log(n)
    (exact under the covering condition, a lower bound otherwise), with the
    measure class of the set at that dimension."""
    return Analysis(inst).u1


# -- multiplicity search --------------------------------------------------------


class RStatus(NamedTuple):
    """``witness`` is the first route of an Achievable r, else None."""

    r: int
    status: str
    witness: tuple | None
    countable_example: Fraction | None


class RSearchResult(NamedTuple):
    """``vectors`` lists the reachable chain-count vectors e_i T_{j1} ...
    T_{jk} in canonical order, each as the plain tuple (counts, norm,
    integer_part, word, support): i is the integer part and j1 ... jk the
    word, and the vector is held sparsely, its nonzero ``counts`` at the
    offsets ``support``, ascending.  ``routes[r]`` lists the routes of r in
    canonical order, each as the plain tuple (vector, residue, subset,
    cycles): a norm-r record of ``vectors``, then a residue h whose aligned
    subset {n*p + h : p in support} is uniquely covered and reaches the
    cycling components ``cycles`` of ``graph``, ascending (at least one);
    the vectors come in the order of ``vectors``, then their residues
    ascending.  Both are exact tuples, not named ones, because the search
    makes one per vector: the cyclic garbage collector can untrack an exact
    tuple of untracked items, but never a tuple subclass, so every full
    collection would walk every record.  An r in 1..max_r is achievable
    exactly when it has a route, and only those r are keys; the status,
    ``dim_ur`` and ``witness_ur`` all read this one list.  ``statuses``
    holds only the r that are not NotReachable, ascending; ``status(r)``
    reads any r."""

    max_r: int
    vectors: tuple[tuple, ...]
    statuses: dict[int, RStatus]
    analysis: Analysis
    graph: CongruentGraph
    routes: dict[int, tuple[tuple, ...]]

    def achievable(self) -> list[int]:
        return list(self.routes)

    def status(self, r: int) -> RStatus:
        """The status of r; NotAchievable when r is outside 1..max_r."""
        if not 1 <= r <= self.max_r:
            raise NotAchievable(f"r={r} is outside the searched range 1..{self.max_r}")
        return self.statuses.get(r) or RStatus(r, STATUS_NOT_REACHABLE, None, None)


def _reachable_vectors(inst: ProblemInstance, max_r: int) -> tuple[tuple, ...]:
    """Closure of {unit vectors} under the digit matrices, pruned at norm
    max_r (norms never decrease under the covering condition, so nothing is
    lost), in canonical order, each as the record (counts, norm,
    integer_part, word, support) that ``RSearchResult.vectors`` describes,
    an exact tuple.  Each vector keeps its canonical discovery:
    shortest digit word, ties broken by word then by starting offset; the
    records come in that order, one breadth-first level at a time.  Raises
    TooLarge as the first record that takes the records past _VECTOR_BITS
    is found; the unit vectors' records are counted before any is formed.

    Row u of digit matrix j is the children of one chain at offset
    proj_min + u under digit j, kept below proj_max, so a product is one
    step of the counting kernel's row arithmetic on the instance's digit
    table (``counting.digit_table``, open rows): a vector is a packed int,
    a field of (max_r * cubes).bit_length() bits per offset, with its
    support mask.  The n row totals of offset u are packed into one int,
    ``packed[u]``, a field of the same width per digit, so the n child norms
    of a vector are the fields of one int sum over its support, and a child
    past max_r is rejected before it is formed.  No field overflows: a
    vector has norm at most max_r and a row total is at most the number of
    cubes.

    A level is a flat list of its vectors in canonical order, so the
    vectors one word discovers sit together, by starting offset (a word and
    an offset give one vector).  The vectors of one word are unpacked once
    each, into their counts, support, (field, count) pairs and packed child
    norms, and ``counting._advance_pairs`` steps the pairs with the digits
    outside and the vectors inside.  Children are then made in (word,
    digit, offset) order, the canonical order of their own discoveries, so
    the first making of a child is its discovery and every later one is
    dropped with one set lookup: the next level comes out in canonical
    order, with no sort and no comparison of candidates.  A child's norm is
    its field of the packed child norms, carried to its record.  The level
    holds no list per word: a list is never untracked by the cyclic
    garbage collector, and one per word made the span-101 search run half
    again as many full collections.
    """
    lo = inst.proj_min
    bits = (max_r * inst.cube_count).bit_length()
    # the unit vector at u has bits * u + 1 bits and its mask u + 1
    held = (bits + 1) * inst.span * (inst.span - 1) // 2 + inst.span * (130 + _RECORD_BITS)
    if held > _VECTOR_BITS:
        raise TooLarge(f"the reachable vectors' records pass {_VECTOR_BITS} bits")
    field = (1 << bits) - 1
    shifts = [(rows, bits * j) for j, (rows, _) in enumerate(digit_table(inst, bits))]
    packed = [sum(rows[u][4] << shift for rows, shift in shifts) for u in range(inst.span)]
    # a level lists its vectors in canonical order, each as its (word, packed
    # counts, integer part, support mask, norm); one word object is shared by
    # all the vectors it discovers, which sit together, by integer part
    level = [((), 1 << bits * u, u + lo, 1 << u, 1) for u in range(inst.span)]
    found = {vec for _, vec, _, _, _ in level}
    vectors = []
    while level:
        nxt = []
        for word, members in groupby(level, itemgetter(0)):
            unpacked = []
            for _, vec, i, mask, norm in members:
                counts, support, pairs, norms = [], [], [], 0
                rest = mask
                while rest:
                    low = rest & -rest
                    u = low.bit_length() - 1
                    rest ^= low
                    c = vec >> bits * u & field
                    counts.append(c)
                    support.append(u + lo)
                    pairs.append((u, c))
                    norms += c * packed[u]
                vectors.append((tuple(counts), norm, i, word, tuple(support)))
                unpacked.append((pairs, norms, i))
            # digits outside, integer parts inside: a child's first making is
            # its canonical discovery (word, then digit, then i), and is
            # counted in the records' bits at once; ``size`` is the part of
            # its record's bits that its word fixes
            size = 64 * (len(word) + 1) + _RECORD_BITS
            for j, (rows, shift) in enumerate(shifts):
                child_word = None
                for pairs, norms, i in unpacked:
                    norm = norms >> shift & field
                    if norm > max_r:
                        continue
                    child, child_mask = _advance_pairs(rows, pairs)
                    if child in found:
                        continue
                    held += (
                        size + child.bit_length() + child_mask.bit_length()
                        + 128 * child_mask.bit_count()
                    )
                    if held > _VECTOR_BITS:
                        raise TooLarge(f"the reachable vectors' records pass {_VECTOR_BITS} bits")
                    found.add(child)
                    if child_word is None:
                        child_word = word + (j,)
                    nxt.append((child_word, child, i, child_mask, norm))
        level = nxt
    return tuple(vectors)


def enumerate_achievable_r(inst: ProblemInstance, max_r: int) -> RSearchResult:
    """Classify every multiplicity 1..max_r of ``inst`` (see
    ``Analysis.search``) on a new context."""
    return Analysis(inst).search(max_r)


# -- dimension and measure of the multiplicity sets -----------------------------


class UrReport(NamedTuple):
    r: int
    dim: float
    candidates: tuple[float, ...]
    countable_flag: bool
    measure_class: str | None


def dim_ur(search: RSearchResult, r: int) -> UrReport:
    """Hausdorff dimension and measure class of the set of points with
    exactly r representations, for r certified by the multiplicity search.

    The value is log(rho)/log(n) for the largest radius rho of the
    subset-graph components reachable from any passing aligned subset;
    multiplicities realised only on the base-n grid get dimension 0, the
    countable flag and no measure class, and the countable flag also marks
    those whose largest reachable radius is 1.  The measure at that
    dimension is infinite when the whole range is dominated, that is
    reachable in the restricted graph from components whose radius is at
    least the top block's, otherwise positive with the total mass left
    undetermined.  Raises NotAchievable for a NotReachable r.
    """
    status = search.status(r)
    if status.status == STATUS_NOT_REACHABLE:
        raise NotAchievable(f"r={r} is not realised (searched up to {search.max_r})")
    if status.status == STATUS_COUNTABLE:
        return UrReport(r=r, dim=0.0, candidates=(), countable_flag=True, measure_class=None)
    graph = search.graph
    n = search.analysis.inst.n
    # the first maximal component of each distinct set of cycles reached,
    # in route order; routes with one subset reach one set
    reached = dict.fromkeys(cycles for _, _, _, cycles in search.routes[r])
    # the blocks of those cycling components only, by component index
    ids = sorted({i for cycles in reached for i in cycles})
    components = graph.scc.components
    blocks = dict(zip(ids, search.analysis.blocks(graph.succ, [components[i] for i in ids])))
    tops = [_top(blocks, cycles) for cycles in reached]
    candidates = {_log_over_log_n(blocks[top][0].estimate, n) for top in tops}
    block = blocks[_top(blocks, tops)]
    return UrReport(
        r=r,
        dim=_log_over_log_n(block[0].estimate, n),
        candidates=tuple(sorted(candidates)),
        countable_flag=_compare(block, _integer_block(1)) == 0,
        measure_class=(
            MEASURE_INFINITE
            if search.analysis.dominated(block)
            else MEASURE_POSITIVE_UNDETERMINED
        ),
    )


# -- witnesses -------------------------------------------------------------------


class WitnessExpansion(NamedTuple):
    integer_part: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def value(self, n: int) -> Fraction:
        return expansion_value(n, self.integer_part, self.preperiod, self.period)


def _bfs_path(succ, start, goal_set):
    """Shortest digit-ascending path from start into goal_set (vertex list)."""
    if start in goal_set:
        return [start]
    prev = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ[v]:
                if w not in prev:
                    prev[w] = v
                    if w in goal_set:
                        path = [w]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return list(reversed(path))
                    nxt.append(w)
        frontier = nxt
    return None


def _loops(succ, entry, residue):
    """Closed walks at ``entry`` inside the component whose successor map
    is ``succ``, one through each vertex v of it: the walks through a
    vertex of nonzero ``residue(v)`` first, and in each group the entry
    first, then ascending.  The walk through the entry is a shortest closed
    walk (the first found in successor order), the walk through another v a
    shortest walk to v followed by a shortest walk back."""
    for via in sorted(succ, key=lambda v: (residue(v) == 0, v != entry, v)):
        if via != entry:
            yield _bfs_path(succ, entry, {via}) + _bfs_path(succ, via, {entry})[1:-1]
            continue
        best = None
        for first in succ[entry]:
            leg = _bfs_path(succ, first, {entry})
            if leg is not None and (best is None or len(leg) < len(best)):
                best = leg
        yield [entry] + best[:-1]


def _witness_candidates(search: RSearchResult, r: int):
    """Eventually periodic expansions of candidate points with exactly r
    representations, in canonical order: the routes of r, then the cycling
    components the route's subset reaches, ascending, then the loops of
    ``_loops`` at the vertex where a shortest path from the subset enters
    the component.  Each expansion is the vector's digit word, then the
    residues along the path, then those along the loop."""
    graph = search.graph
    residue = graph.residue
    decomposition = graph.scc
    for (_, _, i, word, _), _, subset, cycles in search.routes[r]:
        for idx in cycles:
            comp = set(decomposition.components[idx])
            path = _bfs_path(graph.succ, graph.number[subset], comp)
            comp_succ = {v: [t for t in graph.succ[v] if t in comp] for v in comp}
            for cycle in _loops(comp_succ, path[-1], residue):
                yield WitnessExpansion(
                    integer_part=i,
                    preperiod=word + tuple(map(residue, path[:-1])),
                    period=tuple(map(residue, cycle)),
                )


def witness_ur(search: RSearchResult, r: int) -> WitnessExpansion:
    """An eventually periodic expansion of a point with exactly r
    representations, certified by ``exact_card`` at budget ``search.max_r``
    (at least r), on the search's digit table: the first candidate of
    ``_witness_candidates`` whose point it counts as Finite r.

    A loop whose digits are all 0 or all n-1 ends on the base-n grid, where
    counts are mostly infinite, so such candidates are tried only after all
    the others.  Raises NoCertifiedWitness, an InternalError, when no
    candidate certifies.
    """
    status = search.status(r)
    if status.status != STATUS_ACHIEVABLE:
        raise NotAchievable(f"r={r} has status {status.status}")
    inst = search.analysis.inst
    grid = ({0}, {inst.n - 1})
    on_grid = []

    def certifies(expansion: WitnessExpansion) -> bool:
        result = exact_card(inst, expansion.value(inst.n), budget=search.max_r)
        return result.verdict == "Finite" and result.count == r

    for expansion in _witness_candidates(search, r):
        if set(expansion.period) in grid:
            on_grid.append(expansion)
        elif certifies(expansion):
            return expansion
    for expansion in on_grid:
        if certifies(expansion):
            return expansion
    raise NoCertifiedWitness(f"no witness candidate for r={r} certifies")
