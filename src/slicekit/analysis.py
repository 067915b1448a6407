"""Dimension and measure analysis of the multiplicity sets.

* unique-representation set: its dimension is log(rho)/log(n) for the
  spectral radius rho of the restricted interval graph; the measure class
  follows from how many maximal-radius components the graph has.
* higher multiplicities r: a breadth-first closure over the count-matrix
  products e_i T_{j1} ... T_{jk} finds every realisable chain-count vector
  with 1-norm <= max_r, each product one step of the counting kernel on
  the instance's digit table, the one ``exact_card`` reads, and each vector
  kept sparse, as its counts on its support; a vector of norm r together
  with a residue h whose aligned interval subset sits inside the uniquely
  covered collection and reaches a cycling component of the subset graph
  certifies that r occurs beyond the countable base-n grid.  Values of r
  realised only on that grid are found separately by walking terminating
  expansions into the integer offset automaton.

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
known on it are kept, and every vector reads them; the grid scan stops
once every r of 1..max_r has its first countable example.  It then lists
the routes of each r once, in canonical order: a norm-r vector, then a
residue whose aligned subset reaches a cycling component.
``dim_u1`` reads a context; the status of r, whose witness is its first
route, ``dim_ur``, ``measure_ur`` and ``witness_ur`` read that one route
list of a multiplicity search, ``RSearchResult``, which also carries the
context it ran on and the subset graph.  The search stores a
status only for an r it reaches; ``RSearchResult.status`` reads any
other r of 1..max_r as NotReachable.

Every radius verdict compares two blocks, each a certified radius with its
rows, with ``spectral.compare_radii``, exactly and on strongly connected
components only (or on a 1x1 integer block; each component's block comes
from ``Analysis.blocks``, whose rows are its cache key): which
components attain rho, whether failing separation is negligible, where the
multiplicity dimension takes its maximum, the countable flag and
domination.  Dimensions are reported as floats, but no decision is taken
from one.  Each witness point is certified by ``exact_card`` before it is
returned, at budget max_r like the search's integer counts: no count
falls with depth, so none past max_r can change an answer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import inf, log, prod
from operator import itemgetter
from typing import NamedTuple

from .counting import _advance, _record, digit_table, exact_card, expansion_value
from .errors import HypothesisViolated, NoCertifiedWitness, NotAchievable, OutOfRange, TooLarge
from .graphs import CongruentGraph, aligned, build_congruent_graph, reachable
from .instance import ProblemInstance
from .lattice import children, interval_census, xi_types
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
# A search refused at the bound peaks near 300 MiB; the span-101 report
# (n=3, {0,2}^2, (-50, 51)) holds 2.3 * 10^9 bits and still answers.
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


def dim_u1(inst: ProblemInstance) -> U1Report:
    """Dimension of the set of uniquely represented points, log(rho)/log(n)
    (exact under the covering condition, a lower bound otherwise), with the
    measure class of the set at that dimension."""
    return Analysis(inst).u1


# -- multiplicity search --------------------------------------------------------


class ReachableVector(NamedTuple):
    """A reachable chain-count vector e_i T_{j1} ... T_{jk}, i the
    ``integer_part`` and j1 ... jk the ``word``, held sparsely: ``counts``
    are its nonzero entries, at the offsets ``support``, ascending."""

    counts: tuple[int, ...]
    norm: int
    integer_part: int
    word: tuple[int, ...]
    support: tuple[int, ...]


class Route(NamedTuple):
    """A norm-r vector, then a residue h whose aligned subset
    {n*p + h : p in vector.support} is uniquely covered and reaches the
    cycling components ``cycles`` of the search's subset graph, ascending
    (at least one)."""

    vector: ReachableVector
    residue: int
    subset: tuple[int, ...]
    cycles: tuple[int, ...]


class RStatus(NamedTuple):
    """``witness`` is the first route of an Achievable r, else None."""

    r: int
    status: str
    witness: Route | None
    countable_example: Fraction | None


class RSearchResult(NamedTuple):
    """``routes[r]`` lists the routes of r in canonical order: the vectors
    in the discovery order of ``vectors``, then their residues ascending.
    An r in 1..max_r is achievable exactly when it has a route, and only
    those r are keys; the status, ``dim_ur``, ``measure_ur`` and
    ``witness_ur`` all read this one list.  ``statuses`` holds only the r
    that are not NotReachable, ascending; ``status(r)`` reads any r."""

    max_r: int
    vectors: tuple[ReachableVector, ...]
    statuses: dict[int, RStatus]
    analysis: Analysis
    graph: CongruentGraph
    routes: dict[int, tuple[Route, ...]]

    def achievable(self) -> list[int]:
        return list(self.routes)

    def status(self, r: int) -> RStatus:
        """The status of r; NotAchievable when r is outside 1..max_r."""
        if not 1 <= r <= self.max_r:
            raise NotAchievable(f"r={r} is outside the searched range 1..{self.max_r}")
        return self.statuses.get(r) or RStatus(r, STATUS_NOT_REACHABLE, None, None)


def _reachable_vectors(inst: ProblemInstance, max_r: int) -> tuple[ReachableVector, ...]:
    """Closure of {unit vectors} under the digit matrices, pruned at norm
    max_r (norms never decrease under the covering condition, so nothing is
    lost), in canonical order.  Each vector keeps its canonical discovery:
    shortest digit word, ties broken by word then by starting offset; the
    records come in that order, one breadth-first level at a time.  Raises
    TooLarge as the first record that takes the records past _VECTOR_BITS
    is found; the unit vectors' records are counted before any is formed.

    Row u of digit matrix j is the children of one chain at offset
    proj_min + u under digit j, kept below proj_max, so a product is one
    step of the counting kernel on the instance's digit table
    (``counting.digit_table``, open rows): a vector is a packed int, a field
    of (max_r * cubes).bit_length() bits per offset, with its support mask.
    The n row totals of offset u are packed into one int, ``packed[u]``, a
    field of the same width per digit, so the n child norms of a vector are
    the fields of one int sum over its support, and a child past max_r is
    rejected before it is formed.  No field overflows: a vector has norm at
    most max_r and a row total is at most the number of cubes.
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
    # packed counts -> (word, integer part, support mask) of its discovery
    level = {1 << bits * u: ((), u + lo, 1 << u) for u in range(inst.span)}
    found = set(level)
    vectors: list[ReachableVector] = []
    while level:
        nxt: dict[int, tuple] = {}
        for vec, (word, i, mask) in sorted(level.items(), key=itemgetter(1)):
            counts, support, norms = [], [], 0
            rest = mask
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                rest ^= low
                c = vec >> bits * u & field
                counts.append(c)
                support.append(u + lo)
                norms += c * packed[u]
            vectors.append(ReachableVector(tuple(counts), sum(counts), i, word, tuple(support)))
            for j, (rows, shift) in enumerate(shifts):
                if norms >> shift & field > max_r:
                    continue
                child, child_mask, _ = _advance(rows, bits, vec, mask)
                cand = (word + (j,), i, child_mask)
                if child not in found:
                    held += (
                        child.bit_length() + child_mask.bit_length() + _RECORD_BITS
                        + 64 * (len(cand[0]) + 2 * child_mask.bit_count())
                    )
                    if held > _VECTOR_BITS:
                        raise TooLarge(f"the reachable vectors' records pass {_VECTOR_BITS} bits")
                    found.add(child)
                elif cand >= nxt.get(child, cand):
                    continue
                nxt[child] = cand
        level = nxt
    return tuple(vectors)


def _integer_card_table(inst: ProblemInstance, max_r: int) -> dict[int, int | None]:
    """Exact representation count for every integer point of the range,
    at budget max_r; None marks a point that is infinite or counts more
    than max_r, and so feeds only tail totals past max_r."""
    table: dict[int, int | None] = {}
    for p in range(inst.proj_min, inst.proj_max + 1):
        res = exact_card(inst, Fraction(p), budget=max_r)
        table[p] = res.count if res.verdict == "Finite" else None
    return table


def enumerate_achievable_r(inst: ProblemInstance, max_r: int) -> RSearchResult:
    """Classify every multiplicity 1..max_r.

    Achievable: some product vector of norm r admits a residue h whose
    aligned subset lies in the uniquely covered collection and reaches a
    cycling component of the subset graph (so r occurs off the base-n grid,
    on an uncountable set unless all reachable cycles are bare).
    OnlyOnCountableSet: not achievable, but either a norm-r vector is
    reachable (no residue passes) or some terminating expansion realises r
    through the integer-offset automaton.
    NotReachable: neither route produces r (not stored; ``status`` reads it).
    """
    context = Analysis(inst)
    if max_r < 1:
        raise OutOfRange(f"max_r must be >= 1, got {max_r}")
    if max_r > _MAX_R:
        raise TooLarge(f"max_r must be <= {_MAX_R}, got {max_r}")
    if not context.covering:
        raise HypothesisViolated("covering condition fails")
    if not all(context.ssc):
        raise HypothesisViolated("strong separation fails for some factor")
    vectors = _reachable_vectors(inst, max_r)
    n = inst.n

    # countable-grid realisations: terminating expansions = reachable vector,
    # then one nonzero digit, then the integer-offset automaton
    gamma = _integer_card_table(inst, max_r)
    countable: dict[int, Fraction] = {}
    for p, g in sorted(gamma.items()):
        if g is not None and 1 <= g <= max_r and g not in countable:
            countable[g] = Fraction(p)

    def tail_value(p: int, j: int) -> int | None:
        total = 0
        for child, c in children(inst, j, p):
            child_card = gamma[child]
            if child_card is None:
                return None
            total += c * child_card
        return total

    # tails[j][p]: tail_value(p, j), once per working interval p and digit j;
    # blocked[j]: the p where it is None; open_digits[support]: the digits j
    # whose tails are known on the whole support, once per support
    tails = {
        j: {p: tail_value(p, j) for p in range(inst.proj_min, inst.proj_max)}
        for j in range(1, n)
    }
    blocked = {j: {p for p, tail in tails[j].items() if tail is None} for j in tails}
    open_digits: dict[tuple[int, ...], list[int]] = {}
    for rv in vectors:
        # every later vector could only repeat an r that has its example
        if len(countable) == max_r:
            break
        digits = open_digits.get(rv.support)
        if digits is None:
            digits = open_digits[rv.support] = [
                j for j in tails if blocked[j].isdisjoint(rv.support)
            ]
        for j in digits:
            tail = tails[j]
            total = sum([c * tail[p] for p, c in zip(rv.support, rv.counts)])
            if 1 <= total <= max_r and total not in countable:
                countable[total] = expansion_value(
                    n, rv.integer_part, rv.word + (j,), (0,)
                )

    # each support's aligned subsets, the subset graph they reach, its cycles,
    # and each support's passing (residue, subset, cycles) triples
    types = context.types
    subsets = {s: aligned(types, n, [n * p for p in s]) for s in {rv.support for rv in vectors}}
    graph = build_congruent_graph(types, n, {m for pairs in subsets.values() for _, m in pairs})
    cycles = {
        m: tuple(sorted(graph.cycles_reached(m))) for pairs in subsets.values() for _, m in pairs
    }
    passing = {
        s: [(h, m, cycles[m]) for h, m in pairs if cycles[m]] for s, pairs in subsets.items()
    }
    routes: dict[int, list[Route]] = {}
    for rv in vectors:
        triples = passing[rv.support]
        if triples:
            routes.setdefault(rv.norm, []).extend([Route(rv, *triple) for triple in triples])
    statuses: dict[int, RStatus] = {}
    for r in sorted({rv.norm for rv in vectors} | countable.keys()):
        if r in routes:
            statuses[r] = RStatus(r, STATUS_ACHIEVABLE, routes[r][0], None)
        else:
            statuses[r] = RStatus(r, STATUS_COUNTABLE, None, countable.get(r))
    return RSearchResult(
        max_r=max_r,
        vectors=vectors,
        statuses=statuses,
        analysis=context,
        graph=graph,
        routes={r: tuple(routes[r]) for r in sorted(routes)},
    )


# -- dimension and measure of the multiplicity sets -----------------------------


class UrReport(NamedTuple):
    r: int
    dim: float
    candidates: tuple[float, ...]
    countable_flag: bool
    measure_class: str | None


def dim_ur(search: RSearchResult, r: int) -> UrReport:
    """Hausdorff dimension of the set of points with exactly r
    representations, for r certified by the multiplicity search.

    The value is log(rho)/log(n) for the largest radius rho of the
    subset-graph components reachable from any passing aligned subset;
    multiplicities realised only on the base-n grid get dimension 0 and the
    countable flag, and so do those whose largest reachable radius is 1.
    """
    return _dim_ur(search, r)[0]


def _dim_ur(search: RSearchResult, r: int) -> tuple[UrReport, Block | None]:
    """``dim_ur``'s report, with the block of the subset-graph component
    where the maximum is taken (None when r occurs only on the grid)."""
    status = search.status(r)
    if status.status == STATUS_NOT_REACHABLE:
        raise NotAchievable(f"r={r} is not realised (searched up to {search.max_r})")
    if status.status == STATUS_COUNTABLE:
        report = UrReport(
            r=r,
            dim=0.0,
            candidates=(),
            countable_flag=True,
            measure_class=None,
        )
        return report, None
    graph = search.graph
    n = search.analysis.inst.n
    # the first maximal component of each distinct set of cycles reached,
    # in route order; routes with one subset reach one set
    reached = dict.fromkeys(route.cycles for route in search.routes[r])
    # the blocks of those cycling components only, by component index
    ids = sorted({i for cycles in reached for i in cycles})
    components = graph.scc.components
    blocks = dict(zip(ids, search.analysis.blocks(graph.succ, [components[i] for i in ids])))
    tops = [_top(blocks, cycles) for cycles in reached]
    candidates = {_log_over_log_n(blocks[top][0].estimate, n) for top in tops}
    block = blocks[_top(blocks, tops)]
    report = UrReport(
        r=r,
        dim=_log_over_log_n(block[0].estimate, n),
        candidates=tuple(sorted(candidates)),
        countable_flag=_compare(block, _integer_block(1)) == 0,
        measure_class=None,
    )
    return report, block


def measure_ur(search: RSearchResult, r: int) -> UrReport:
    """Measure class of the multiplicity-r set at its dimension: infinite
    when the whole range is dominated, that is reachable in the restricted
    graph from components whose radius is at least the one ``dim_ur``
    reads, otherwise positive with the total mass left undetermined."""
    status = search.status(r)
    if status.status != STATUS_ACHIEVABLE:
        raise NotAchievable(f"r={r} has status {status.status}")
    report, block = _dim_ur(search, r)
    measure = (
        MEASURE_INFINITE
        if search.analysis.dominated(block)
        else MEASURE_POSITIVE_UNDETERMINED
    )
    return report._replace(measure_class=measure)


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
    for route in search.routes[r]:
        rv = route.vector
        for idx in route.cycles:
            comp = set(decomposition.components[idx])
            path = _bfs_path(graph.succ, graph.number[route.subset], comp)
            comp_succ = {v: [t for t in graph.succ[v] if t in comp] for v in comp}
            for cycle in _loops(comp_succ, path[-1], residue):
                yield WitnessExpansion(
                    integer_part=rv.integer_part,
                    preperiod=rv.word + tuple(map(residue, path[:-1])),
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
