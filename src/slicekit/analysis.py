"""Dimension and measure analysis of the multiplicity sets.

* unique-representation set: its dimension is log(rho)/log(n) for the
  spectral radius rho of the restricted interval graph; the measure class
  follows from how many maximal-radius components the graph has.
* higher multiplicities r: a breadth-first closure over the count-matrix
  products e_i T_{j1} ... T_{jk} finds every realisable chain-count vector
  with 1-norm <= max_r; a vector of norm r together with a residue h whose
  aligned interval subset sits inside the uniquely covered collection and
  reaches a cycling component of the subset graph certifies that r occurs
  beyond the countable base-n grid.  Values of r realised only on that grid
  are found separately by walking terminating expansions into the integer
  offset automaton.

Every answer for one instance is read from an ``Analysis`` context.  It
computes each derived object on first use and keeps it: the restricted
graph (with the xi types) and its SCC decomposition, covering and
separation, the digit matrices, the U1 report and the subset graph, which
holds every subset of every residue class and so every aligned subset the
search consults.  The public functions below are thin readers of a
context; ``RSearchResult`` carries the context of its search, so passing
``search=`` reuses all of it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, log

from .counting import exact_card, expansion_value
from .errors import HypothesisViolated, NotAchievable, TooLarge
from .graphs import (
    CongruentGraph, SccDecomposition, XiGraph, build_congruent_graph, build_xi_graph,
    component_matrix, scc,
)
from .instance import ProblemInstance
from .lattice import covering_condition, strong_separation
# spectral_radius is not called here any more; it stays importable from this
# module because bench/tests/test_harness.py checks that the tracer wraps it
# at this import site.
from .spectral import (  # noqa: F401
    CountMatrix, RadiusResult, enclosed_radii_equal, max_radius, spectral_radius,
    transition_matrices,
)

_VECTOR_CAP = 2**20

MEASURE_POSITIVE_FINITE = "PositiveFinite"
MEASURE_INFINITE = "Infinite"
MEASURE_POSITIVE_ONLY = "PositiveOnly"
MEASURE_NOT_APPLICABLE = "NotApplicable"
MEASURE_POSITIVE_UNDETERMINED = "PositiveUndetermined"

STATUS_ACHIEVABLE = "Achievable"
STATUS_COUNTABLE = "OnlyOnCountableSet"
STATUS_NOT_REACHABLE = "NotReachable"


# -- unique representations ----------------------------------------------------


@dataclass(frozen=True)
class U1Report:
    rho: RadiusResult
    s: float
    s_lower: float
    s_upper: float
    dim_exact: bool
    s_positive: bool
    covering: bool
    ssc: bool
    measure_class: str
    notes: tuple[str, ...]


def _log_over_log_n(value: float, n: int) -> float:
    if value <= 0.0:
        return -inf
    return log(value) / log(n)


def _separation_negligible(inst: ProblemInstance, ssc_flags, s: float) -> bool:
    """Can failing separation still be ignored for the s-measure?

    A factor with two digits at distance 1 lets depth-k cubes touch along
    faces where that coordinate is pinned; the touched slice values then
    fill a set of dimension at most the sum of the other factors' dimensions
    log|A_k|/log n.  Strictly below s, those faces are s-null and the
    measure dichotomy goes through unchanged.
    """
    dims = [_log_over_log_n(len(a), inst.n) for a in inst.digit_sets]
    total = sum(dims)
    eps = 1e-12
    for flag, own in zip(ssc_flags, dims):
        if not flag and total - own >= s - eps:
            return False
    return True


@dataclass(frozen=True)
class Analysis:
    """The derived objects of one instance, each computed at most once."""

    inst: ProblemInstance

    # -- the restricted graph and the unique representations ------------------

    @cached_property
    def xi(self) -> XiGraph:
        return build_xi_graph(self.inst)

    @cached_property
    def xi_scc(self) -> SccDecomposition:
        return scc(self.xi.adjacency())

    @cached_property
    def covering(self) -> bool:
        return covering_condition(self.inst)

    @cached_property
    def ssc(self) -> list[bool]:
        return strong_separation(self.inst)

    @cached_property
    def matrices(self) -> list[CountMatrix]:
        return transition_matrices(self.inst)

    @cached_property
    def u1(self) -> U1Report:
        inst, xi = self.inst, self.xi
        covering = self.covering
        ssc_flags = self.ssc
        ssc = all(ssc_flags)
        rho = max_radius(self.xi_scc.radii)
        n = inst.n
        s = _log_over_log_n(rho.estimate, n)
        s_lower = _log_over_log_n(float(rho.lower), n)
        s_upper = _log_over_log_n(float(rho.upper), n)
        adjacency = xi.adjacency()
        blocks = [component_matrix(adjacency, comp) for comp in self.xi_scc.components]
        # exact test for rho > 1: some component carries more edges than
        # vertices (two overlapping cycles)
        s_positive = any(sum(map(sum, block)) > len(block) for block in blocks)
        notes = []
        if not covering:
            notes.append("covering condition fails: s is only a lower bound for the dimension")
        dichotomy_ok = ssc or _separation_negligible(inst, ssc_flags, s)
        if not ssc and dichotomy_ok:
            notes.append(
                "strong separation fails but cube faces have dimension below s; "
                "the measure dichotomy still applies"
            )
        if not dichotomy_ok:
            notes.append("strong separation fails: the measure dichotomy does not apply")
        if covering and dichotomy_ok and s_positive:
            measure = MEASURE_POSITIVE_FINITE
            maximal = []
            # rho and the component radii are certified already
            for idx, block in enumerate(blocks):
                eq, verdict = enclosed_radii_equal(
                    self.xi_scc.radii[idx], rho, block, xi.matrix
                )
                if eq:
                    maximal.append(idx)
                    notes.append(f"component {idx} attains the full radius ({verdict})")
            for i in maximal:
                for j in maximal:
                    if i != j and self.xi_scc.precedes(i, j):
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
            covering=covering,
            ssc=ssc,
            measure_class=measure,
            notes=tuple(notes),
        )

    def dominated(self, d: float, tolerance: float = 1e-12) -> bool:
        """Is every working interval reachable, inside the restricted
        interval graph, from a component whose radius exponent is at least d?"""
        inst, xi = self.inst, self.xi
        if not xi.vertices:
            return False
        decomposition = self.xi_scc
        reached: set[int] = set()
        for idx, rr in enumerate(decomposition.radii):
            if _log_over_log_n(rr.estimate, inst.n) >= d - tolerance:
                reached |= decomposition.reach[idx]
        covered = {xi.types[u] for j in reached for u in decomposition.components[j]}
        return set(range(inst.proj_min, inst.proj_max)) <= covered

    # -- the subset graph and the multiplicity search --------------------------

    @cached_property
    def subset_graph(self) -> CongruentGraph:
        return build_congruent_graph(self.inst)

    def aligned_subsets(self, support: tuple[int, ...]):
        """(h, subset) for every residue h whose aligned subset
        {n*p + h : p in support} is uniquely covered, ascending in h."""
        n, types = self.inst.n, self.xi.types
        for h in range(n):
            members = tuple(sorted(n * p + h for p in support))
            if all(u in types for u in members):
                yield h, members

    def cycles_reached(self, members: tuple[int, ...]) -> frozenset[int]:
        """The cycling subset-graph components that subset ``members`` reaches."""
        decomposition = self.subset_graph.scc
        i = decomposition.comp_of[members]
        return decomposition.reach[i] & decomposition.cycling


def dim_u1(inst: ProblemInstance) -> U1Report:
    """Dimension of the set of uniquely represented points, log(rho)/log(n)
    (exact under the covering condition, a lower bound otherwise), with the
    measure class of the set at that dimension."""
    return Analysis(inst).u1


# -- multiplicity search --------------------------------------------------------


@dataclass(frozen=True)
class ReachableVector:
    vector: tuple[int, ...]
    norm: int
    integer_part: int
    word: tuple[int, ...]
    support: tuple[int, ...]


@dataclass(frozen=True)
class AchievabilityWitness:
    vector: tuple[int, ...]
    integer_part: int
    word: tuple[int, ...]
    support: tuple[int, ...]
    residue: int
    subset: tuple[int, ...]


@dataclass(frozen=True)
class RStatus:
    r: int
    status: str
    witness: AchievabilityWitness | None
    countable_example: Fraction | None


@dataclass(frozen=True)
class RSearchResult:
    max_r: int
    vectors: tuple[ReachableVector, ...]
    statuses: dict[int, RStatus]
    analysis: Analysis

    def achievable(self) -> list[int]:
        return [r for r, st in sorted(self.statuses.items()) if st.status == STATUS_ACHIEVABLE]


def _reachable_vectors(inst: ProblemInstance, max_r: int) -> dict[tuple[int, ...], tuple]:
    """Closure of {unit vectors} under the digit matrices, pruned at norm
    max_r (norms never decrease under the covering condition, so nothing is
    lost).  Each vector keeps its canonical discovery: shortest digit word,
    ties broken by word then by starting offset.

    A product is computed sparsely, as ``advance_state`` advances a slice
    state: entry (u, v) of digit matrix j is the cube weight count of
    n*u + j - v, so child[v] = sum of vec[u] * count(w) over the support u of
    vec and the distinct cube weights w with v = n*u + j - w in range.  The
    dense span x span product it replaces is never formed.
    """
    n, lo, span = inst.n, inst.proj_min, inst.span
    weights = list(inst.cube_weights.items())
    found: dict[tuple[int, ...], tuple] = {}
    level: dict[tuple[int, ...], tuple] = {}
    for i in range(inst.proj_min, inst.proj_max):
        vec = tuple(1 if p == i else 0 for p in range(inst.proj_min, inst.proj_max))
        level[vec] = ((), i)
    for vec, disc in level.items():
        found[vec] = disc
    while level:
        nxt: dict[tuple[int, ...], tuple] = {}
        for vec, (word, i) in sorted(level.items(), key=lambda kv: (kv[1][0], kv[1][1])):
            # index v of the child entry for digit 0 and weight 0, per support entry
            support = [(n * (u + lo) - lo, c) for u, c in enumerate(vec) if c]
            for j in range(n):
                child = [0] * span
                for base, c in support:
                    for w, count in weights:
                        v = base + j - w
                        if 0 <= v < span:
                            child[v] += c * count
                if sum(child) > max_r:
                    continue
                child = tuple(child)
                cand = (word + (j,), i)
                if child in found:
                    continue
                if child not in nxt or cand < nxt[child]:
                    nxt[child] = cand
        for vec, disc in nxt.items():
            found[vec] = disc
        if len(found) > _VECTOR_CAP:
            raise TooLarge(f"more than {_VECTOR_CAP} reachable vectors")
        level = nxt
    return found


def _integer_card_table(inst: ProblemInstance, budget: int) -> dict[int, int | None]:
    """Exact representation count for every integer point of the range;
    None marks infinite (or undecided within budget)."""
    table: dict[int, int | None] = {}
    for p in range(inst.proj_min, inst.proj_max + 1):
        res = exact_card(inst, Fraction(p), budget=budget)
        table[p] = res.count if res.verdict == "Finite" else None
    return table


def enumerate_achievable_r(
    inst: ProblemInstance, max_r: int, budget: int = 4096
) -> RSearchResult:
    """Classify every multiplicity 1..max_r.

    Achievable: some product vector of norm r admits a residue h whose
    aligned subset lies in the uniquely covered collection and reaches a
    cycling component of the subset graph (so r occurs off the base-n grid,
    on an uncountable set unless all reachable cycles are bare).
    OnlyOnCountableSet: not achievable, but either a norm-r vector is
    reachable (no residue passes) or some terminating expansion realises r
    through the integer-offset automaton.
    NotReachable: neither route produces r.
    """
    return _search(Analysis(inst), max_r, budget)


def _search(context: Analysis, max_r: int, budget: int = 4096) -> RSearchResult:
    inst = context.inst
    if not context.covering:
        raise HypothesisViolated("covering condition fails")
    if not all(context.ssc):
        raise HypothesisViolated("strong separation fails for some factor")
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    found = _reachable_vectors(inst, max_r)
    n = inst.n

    vectors = []
    for vec, (word, i) in sorted(
        found.items(), key=lambda kv: (len(kv[1][0]), kv[1][0], kv[1][1])
    ):
        support = tuple(
            p
            for p, c in zip(range(inst.proj_min, inst.proj_max), vec)
            if c
        )
        vectors.append(
            ReachableVector(
                vector=vec,
                norm=sum(vec),
                integer_part=i,
                word=word,
                support=support,
            )
        )

    # countable-grid realisations: terminating expansions = reachable vector,
    # then one nonzero digit, then the integer-offset automaton
    gamma = _integer_card_table(inst, budget)
    weights = inst.cube_weights
    countable: dict[int, Fraction] = {}
    for p, g in sorted(gamma.items()):
        if g is not None and 1 <= g <= max_r and g not in countable:
            countable[g] = Fraction(p)

    def tail_value(p: int, j: int) -> int | None:
        total = 0
        for w, c in weights.items():
            child = n * p + j - w
            if inst.proj_min <= child <= inst.proj_max:
                child_card = gamma[child]
                if child_card is None:
                    return None
                total += c * child_card
        return total

    for rv in vectors:
        for j in range(1, n):
            total = 0
            for p in rv.support:
                tail = tail_value(p, j)
                if tail is None:
                    total = None
                    break
                total += rv.vector[p - inst.proj_min] * tail
            if total is not None and 1 <= total <= max_r and total not in countable:
                countable[total] = expansion_value(
                    n, rv.integer_part, rv.word + (j,), (0,)
                )

    statuses: dict[int, RStatus] = {}
    by_norm: dict[int, list[ReachableVector]] = {}
    for rv in vectors:
        by_norm.setdefault(rv.norm, []).append(rv)
    for r in range(1, max_r + 1):
        witness = None
        for rv in by_norm.get(r, []):
            for h, members in context.aligned_subsets(rv.support):
                if context.cycles_reached(members):
                    witness = AchievabilityWitness(
                        vector=rv.vector,
                        integer_part=rv.integer_part,
                        word=rv.word,
                        support=rv.support,
                        residue=h,
                        subset=members,
                    )
                    break
            if witness:
                break
        if witness is not None:
            statuses[r] = RStatus(r, STATUS_ACHIEVABLE, witness, None)
        elif r in by_norm or r in countable:
            statuses[r] = RStatus(r, STATUS_COUNTABLE, None, countable.get(r))
        else:
            statuses[r] = RStatus(r, STATUS_NOT_REACHABLE, None, None)
    return RSearchResult(
        max_r=max_r, vectors=tuple(vectors), statuses=statuses, analysis=context
    )


# -- dimension and measure of the multiplicity sets -----------------------------


@dataclass(frozen=True)
class UrReport:
    r: int
    dim: float
    candidates: tuple[float, ...]
    countable_flag: bool
    measure_class: str | None
    argmax_support: tuple[int, ...] | None
    argmax_residue: int | None


def _search_reaching(
    inst: ProblemInstance, r: int, search: RSearchResult | None, max_r: int | None
) -> RSearchResult:
    """``search`` when it classifies r, else a search up to max(r, max_r)
    that reuses the context of ``search`` when there is one."""
    if search is not None and search.max_r >= r:
        return search
    context = search.analysis if search else Analysis(inst)
    return _search(context, max_r if max_r and max_r >= r else r)


def dim_ur(
    inst: ProblemInstance,
    r: int,
    search: RSearchResult | None = None,
    max_r: int | None = None,
) -> UrReport:
    """Hausdorff dimension of the set of points with exactly r
    representations, for r certified by the multiplicity search.

    The value is a maximum of log(rho)/log(n) over the subset-graph
    components reachable from any passing aligned subset; multiplicities
    realised only on the base-n grid get dimension 0 and the countable flag.
    """
    search = _search_reaching(inst, r, search, max_r)
    status = search.statuses[r]
    if status.status == STATUS_NOT_REACHABLE:
        raise NotAchievable(f"r={r} is not realised (searched up to {search.max_r})")
    if status.status == STATUS_COUNTABLE:
        return UrReport(
            r=r,
            dim=0.0,
            candidates=(),
            countable_flag=True,
            measure_class=None,
            argmax_support=None,
            argmax_residue=None,
        )
    context = search.analysis
    radii = context.subset_graph.scc.radii
    best = -inf
    best_pair = (None, None)
    candidates = set()
    for support in sorted({rv.support for rv in search.vectors if rv.norm == r}):
        for h, members in context.aligned_subsets(support):
            reached = context.cycles_reached(members)
            if not reached:
                continue
            val = max(_log_over_log_n(radii[j].estimate, inst.n) for j in reached)
            candidates.add(val)
            if val > best:
                best = val
                best_pair = (support, h)
    assert best > -inf, "an achievable r must reach a cycling component"
    u1 = context.u1
    assert best <= u1.s + 1e-9, "multiplicity dimension cannot exceed the unique-set dimension"
    return UrReport(
        r=r,
        dim=best,
        candidates=tuple(sorted(candidates)),
        countable_flag=best == 0.0,
        measure_class=None,
        argmax_support=best_pair[0],
        argmax_residue=best_pair[1],
    )


def domination_check(inst: ProblemInstance, d: float, tolerance: float = 1e-12) -> bool:
    """Is every working interval reachable, inside the restricted interval
    graph, from a component whose radius exponent is at least d?"""
    return Analysis(inst).dominated(d, tolerance)


def measure_ur(
    inst: ProblemInstance,
    r: int,
    search: RSearchResult | None = None,
    max_r: int | None = None,
) -> UrReport:
    """Measure class of the multiplicity-r set at its dimension: infinite
    when the whole range is dominated at that exponent, otherwise positive
    with the total mass left undetermined."""
    search = _search_reaching(inst, r, search, max_r)
    status = search.statuses[r]
    if status.status != STATUS_ACHIEVABLE:
        raise NotAchievable(f"r={r} has status {status.status}")
    report = dim_ur(inst, r, search=search)
    measure = (
        MEASURE_INFINITE
        if search.analysis.dominated(report.dim)
        else MEASURE_POSITIVE_UNDETERMINED
    )
    return dataclasses.replace(report, measure_class=measure)


# -- witnesses -------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessExpansion:
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


def witness_ur(
    inst: ProblemInstance,
    r: int,
    search: RSearchResult | None = None,
    max_r: int | None = None,
) -> WitnessExpansion:
    """An eventually periodic expansion of a point with exactly r
    representations: the canonical digit word reaching a norm-r vector,
    then the residues along a path into a cycle of the subset graph.

    Cycles through a nonzero residue are preferred so the witness avoids
    the base-n grid; the closed loop is then confirmed by exact counting in
    the test suite.
    """
    search = _search_reaching(inst, r, search, max_r)
    status = search.statuses[r]
    if status.status != STATUS_ACHIEVABLE:
        raise NotAchievable(f"r={r} has status {status.status}")
    w = status.witness
    context = search.analysis
    n = inst.n
    graph = context.subset_graph
    decomposition = graph.scc
    succ = graph.succ
    start = w.subset
    reachable_targets = context.cycles_reached(start)
    good = {
        idx
        for idx in reachable_targets
        if any(v[0] % n != 0 for v in decomposition.components[idx])
    }
    target_comps = good or reachable_targets
    goal = {
        v for j in target_comps for v in decomposition.components[j]
    }
    path = _bfs_path(succ, start, goal)
    assert path is not None
    entry = path[-1]
    comp = set(decomposition.components[decomposition.comp_of[entry]])
    comp_succ = {v: tuple(t for t in succ[v] if t in comp) for v in comp}
    nonzero = sorted(v for v in comp if v[0] % n != 0)
    if nonzero and entry[0] % n == 0:
        # route the loop through a nonzero-residue vertex so the period
        # digits are not all zero
        via = nonzero[0]
        leg1 = _bfs_path(comp_succ, entry, {via})
        leg2 = _bfs_path(comp_succ, via, {entry})
        assert leg1 is not None and leg2 is not None and len(leg2) > 1
        cycle = leg1 + leg2[1:-1]
    else:
        # shortest closed loop at the entry vertex
        best = None
        for first in comp_succ[entry]:
            leg = _bfs_path(comp_succ, first, {entry})
            if leg is not None:
                cand = [entry] + leg[:-1]
                if best is None or len(cand) < len(best):
                    best = cand
        assert best is not None
        cycle = best
    preperiod = w.word + tuple(v[0] % n for v in path[:-1])
    period = tuple(v[0] % n for v in cycle)
    return WitnessExpansion(
        integer_part=w.integer_part, preperiod=preperiod, period=period
    )
