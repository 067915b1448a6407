import gc
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    dim_u1,
    dim_ur,
    enumerate_achievable_r,
    exact_card,
    strong_separation,
    witness_ur,
)
from slicekit import analysis, covering_condition, graphs, parse_instance, report
from slicekit.analysis import _LOOP_BLOCKS, _MAX_R, Analysis, _witness_candidates
from slicekit.errors import (
    HypothesisViolated, NoCertifiedWitness, NotAchievable, OutOfRange, TooLarge,
)
from slicekit.lattice import interval_census, interval_type_counts, u_range, xi_types
from slicekit.spectral import block_radius

from conftest import FIXTURES, counting_instances, load
from helpers import block_rows
from test_golden import SCALED

LOG2_3 = math.log(2) / math.log(3)


def test_dim_u1_examples(cantor_diff, base7_double, base6_mixed):
    assert abs(dim_u1(cantor_diff).s - LOG2_3) <= 1e-9
    golden3 = math.log((3 + math.sqrt(5)) / 2) / math.log(7)
    assert abs(dim_u1(base7_double).s - golden3) <= 1e-9
    assert abs(dim_u1(base6_mixed).s - math.log(4) / math.log(6)) <= 1e-9


def test_dim_exact_flags(cantor_diff, no_cover):
    assert dim_u1(cantor_diff).dim_exact
    rep = dim_u1(no_cover)
    assert not rep.dim_exact  # covering fails: lower bound only
    assert abs(rep.s - 0.5) <= 1e-9  # rho = 2 in base 4


def test_measure_classes(cantor_diff, base7_double, base6_mixed, no_cover):
    assert dim_u1(cantor_diff).measure_class == "PositiveFinite"
    assert dim_u1(base7_double).measure_class == "PositiveOnly"
    assert dim_u1(base6_mixed).measure_class == "PositiveFinite"
    assert dim_u1(no_cover).measure_class == "PositiveOnly"


def test_enumerate_statuses(cantor_diff):
    search = enumerate_achievable_r(cantor_diff, 6)
    assert search.achievable() == [1, 2, 4]
    statuses = {r: search.status(r).status for r in range(1, 7)}
    assert statuses[3] == "OnlyOnCountableSet"
    assert statuses[5] == "NotReachable"
    assert statuses[6] == "OnlyOnCountableSet"


def test_statuses_store_only_reached_r(cantor_diff):
    """The search stores a status only for an r that is not NotReachable;
    ``status`` reads any r of 1..max_r and refuses every other r."""
    search = enumerate_achievable_r(cantor_diff, 6)
    assert list(search.statuses) == [1, 2, 3, 4, 6]
    assert search.status(5) == (5, "NotReachable", None, None)
    for r in (0, 7):
        with pytest.raises(NotAchievable, match="outside the searched range 1..6"):
            search.status(r)
    # 39 of 10^6 are stored, ascending, though a set of them iterates out of order
    large = enumerate_achievable_r(cantor_diff, 10**6)
    assert len(large.statuses) == 39
    assert list(large.statuses) == sorted(large.statuses)


def test_enumerate_requires_hypotheses(base7_double, no_cover):
    with pytest.raises(HypothesisViolated):
        enumerate_achievable_r(base7_double, 4)
    with pytest.raises(HypothesisViolated):
        enumerate_achievable_r(no_cover, 4)
    # the range of max_r is checked first; a max_r past _MAX_R is a
    # resource cap, refused before anything is built
    for inst in (base7_double, no_cover):
        with pytest.raises(OutOfRange, match="max_r must be >= 1"):
            enumerate_achievable_r(inst, 0)
        with pytest.raises(TooLarge, match=f"max_r must be <= {_MAX_R}"):
            enumerate_achievable_r(inst, _MAX_R + 1)


def test_vector_bits_bound_counts_every_record(monkeypatch, cantor_double_diff, cantor_diff):
    """The search counts each record's bits as its vector is found: its
    packed vector and support mask, 64 bits per word digit and per support
    entry twice, and _RECORD_BITS.  It passes at a bound equal to that
    recount over every record and is refused one bit below; a bound below
    the unit vectors' records refuses before any vector is stepped."""
    for inst, max_r in ((cantor_double_diff, 6), (cantor_diff, 40)):
        full = analysis._reachable_vectors(inst, max_r)
        bits = (max_r * inst.cube_count).bit_length()
        lo = inst.proj_min
        total = 0
        for counts, _, _, word, support in full:
            vec = sum(c << bits * (p - lo) for p, c in zip(support, counts))
            mask = sum(1 << p - lo for p in support)
            total += (
                vec.bit_length() + mask.bit_length() + analysis._RECORD_BITS
                + 64 * (len(word) + 2 * len(support))
            )
        monkeypatch.setattr(analysis, "_VECTOR_BITS", total)
        assert analysis._reachable_vectors(inst, max_r) == full
        monkeypatch.setattr(analysis, "_VECTOR_BITS", total - 1)
        with pytest.raises(TooLarge, match=f"records pass {total - 1} bits"):
            analysis._reachable_vectors(inst, max_r)
        units = [word for _, _, _, word, _ in full if not word]
        assert len(units) == inst.span
        monkeypatch.setattr(analysis, "_VECTOR_BITS", inst.span * analysis._RECORD_BITS)
        # the search steps its vectors with _advance_pairs alone: never called
        monkeypatch.setattr(analysis, "_advance_pairs", None)
        with pytest.raises(TooLarge, match="records pass"):
            analysis._reachable_vectors(inst, max_r)
        monkeypatch.undo()


def test_search_records_are_untracked_tuples():
    """The search makes one record per vector and one route per (vector,
    residue): each is an exact tuple, which the cyclic garbage collector
    untracks once it holds only untracked items, so a full collection does
    not walk them.  A tuple subclass, such as a named tuple, is never
    untracked."""
    search = enumerate_achievable_r(parse_instance(SCALED["span13"][0]), 6)
    routes = [route for rs in search.routes.values() for route in rs]
    assert search.vectors and routes
    # a collection may reach a tuple before the tuples it holds, and a route
    # holds a record, which holds its counts: three collections untrack all
    for _ in range(3):
        gc.collect()
    for item in search.vectors + tuple(routes):
        assert type(item) is tuple
        assert not gc.is_tracked(item)


def test_countable_examples_verify(cantor_diff):
    search = enumerate_achievable_r(cantor_diff, 6)
    for r in (3, 6):
        x = search.status(r).countable_example
        assert x is not None
        res = exact_card(cantor_diff, x)
        assert (res.verdict, res.count) == ("Finite", r)
        # those points sit on the base-n grid
        assert all(p == 3 for p in _prime_factors(x.denominator))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(counting_instances(), st.integers(1, 9))
def test_countable_examples_verify_random(inst, max_r):
    """Every countable example counts Finite r and sits on the base-n grid:
    every prime of its denominator divides n, so n^k * x is an integer for
    some k.  The bundled and scaled reports give few examples that are not
    integers, each found from a vector and a digit's tails; these draws
    give more."""
    for r, status in enumerate_achievable_r(inst, max_r).statuses.items():
        x = status.countable_example
        if x is not None:
            res = exact_card(inst, x)
            assert (res.verdict, res.count) == ("Finite", r), x
            assert inst.n ** x.denominator.bit_length() % x.denominator == 0, x


def _prime_factors(value):
    out = []
    d = 2
    while d * d <= value:
        while value % d == 0:
            out.append(d)
            value //= d
        d += 1
    if value > 1:
        out.append(value)
    return out


def _named_status(search, r):
    """``search.status(r)`` with its witness route's cycles written as the
    member tuples of their components: component numbers belong to one
    search's subset graph, the members to the whole graph."""
    status = search.status(r)
    if status.witness is None:
        return status
    graph = search.graph
    vector, residue, subset, cycles = status.witness
    named = tuple(tuple(graph.vertices[v] for v in graph.scc.components[i]) for i in cycles)
    return status._replace(witness=(vector, residue, subset, named))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(counting_instances(), st.integers(1, 4), st.integers(1, 3))
def test_search_closure_is_stable(inst, a, extra):
    """A longer search classifies each r <= a as the shorter one does and
    lists the same norm-<=a vectors in the same order: norms never decrease
    and every grid tail count is at least 1, so raising max_r only adds
    vectors and totals above a.  This is why the readers take a search and
    no max_r of their own."""
    if not all(strong_separation(inst)):
        return
    small = enumerate_achievable_r(inst, a)
    large = enumerate_achievable_r(inst, a + extra)
    assert [_named_status(large, r) for r in range(1, a + 1)] == [
        _named_status(small, r) for r in range(1, a + 1)
    ]
    assert tuple(
        (counts, norm, i, word, support)
        for counts, norm, i, word, support in large.vectors
        if norm <= a
    ) == small.vectors


def test_powers_of_two_achievable(cantor_diff):
    search = enumerate_achievable_r(cantor_diff, 16)
    assert search.achievable() == [1, 2, 4, 8, 16]
    norms = {norm for _, norm, _, _, _ in search.vectors}
    assert norms == {1, 2, 4, 8, 16}


def test_dim_ur_values(cantor_diff):
    search = enumerate_achievable_r(cantor_diff, 6)
    for r in (2, 4):
        rep = dim_ur(search, r)
        assert abs(rep.dim - LOG2_3) <= 1e-9
        assert not rep.countable_flag
        assert rep.candidates and max(rep.candidates) == rep.dim
    rep3 = dim_ur(search, 3)
    assert rep3.dim == 0.0 and rep3.countable_flag


def test_dim_ur_not_achievable(cantor_diff):
    """r = 3 occurs only on the grid: dim_ur answers it as countable, with
    dimension 0 and no measure class; the NotReachable r = 5 is refused."""
    search = enumerate_achievable_r(cantor_diff, 6)
    assert dim_ur(search, 3) == (3, 0.0, (), True, None)
    with pytest.raises(NotAchievable):
        dim_ur(search, 5)


def test_measure_ur(cantor_diff):
    """dim_ur's measure class of an achievable r: Infinite exactly when
    the top block dominates the restricted graph."""
    search = enumerate_achievable_r(cantor_diff, 6)
    for r in (2, 4):
        assert dim_ur(search, r).measure_class == "Infinite"


def _integer_block(value):
    rows = block_rows(((value,),))
    return block_radius(rows), rows


def test_domination(cantor_diff):
    # radius 2 is dimension log2/log3, radius 1 dimension 0, and radius 3
    # stands above any dimension below 1
    context = Analysis(cantor_diff)
    assert context.dominated(_integer_block(2))
    assert context.dominated(_integer_block(1))
    assert not context.dominated(_integer_block(3))


def test_witness_round_trip(cantor_diff):
    search = enumerate_achievable_r(cantor_diff, 8)
    for r in (1, 2, 4, 8):
        w = witness_ur(search, r)
        x = w.value(cantor_diff.n)
        res = exact_card(cantor_diff, x)
        assert (res.verdict, res.count) == ("Finite", r), (r, x)
        assert any(d != 0 for d in w.period)  # off the base-n grid


def test_witness_past_the_default_budget(cantor_diff):
    """The search counts at its own max_r, not at exact_card's default
    budget of 4096: r = 2^13 is achievable on cantor_diff, and its witness
    certifies, in witness_ur and in the report."""
    r = 2**13
    w = witness_ur(enumerate_achievable_r(cantor_diff, r), r)
    res = exact_card(cantor_diff, w.value(cantor_diff.n), budget=r)
    assert (res.verdict, res.count) == ("Finite", r)
    entry = report.build_report(cantor_diff, max_r=r)["data"]["ur"][str(r)]
    assert entry["witness"]["value"] == "1/3188646"
    assert w.value(cantor_diff.n) == Fraction(1, 3188646)


def test_witness_canonical(cantor_diff):
    search = enumerate_achievable_r(cantor_diff, 4)
    assert witness_ur(search, 2).value(3) == Fraction(1, 6)
    assert witness_ur(search, 4).value(3) == Fraction(1, 18)


def test_dim_ur_bounded_by_dim_u1(cantor_diff):
    u1 = dim_u1(cantor_diff)
    search = enumerate_achievable_r(cantor_diff, 8)
    for r in search.achievable():
        assert dim_ur(search, r).dim <= u1.s + 1e-9


def test_readers_refuse_r_outside_the_search(cantor_diff):
    search = enumerate_achievable_r(cantor_diff, 8)
    for reader in (dim_ur, witness_ur):
        for r in (0, 9):
            with pytest.raises(NotAchievable):
                reader(search, r)
    assert abs(dim_ur(search, 8).dim - LOG2_3) <= 1e-9
    x = witness_ur(search, 8).value(cantor_diff.n)
    res = exact_card(cantor_diff, x)
    assert (res.verdict, res.count) == ("Finite", 8)


def test_witness_round_trip_double_diff(cantor_double_diff):
    search = enumerate_achievable_r(cantor_double_diff, 6)
    assert search.achievable() == [1, 2, 3, 4, 5, 6]
    for r in search.achievable():
        w = witness_ur(search, r)
        res = exact_card(cantor_double_diff, w.value(cantor_double_diff.n))
        assert (res.verdict, res.count) == ("Finite", r)


# Two families of these instances (n=5 with coefficients {2, 3} and n=7
# with {3, 4}, up to sign) call r = 2..4 achievable although every cycle
# their norm-r vectors reach is a loop on digit 0 or n-1, whose points sit
# on the base-n grid and have infinitely many representations; there
# witness_ur finds nothing to certify and says so.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(counting_instances())
def test_every_achievable_r_gets_a_certified_witness(inst):
    """witness_ur's point has exactly r representations for every
    achievable r <= 4, as exact_card counts them, unless every candidate
    ends in a loop on the base-n grid."""
    if not all(strong_separation(inst)):
        return
    search = enumerate_achievable_r(inst, 4)
    grid = ({0}, {inst.n - 1})
    for r in search.achievable():
        try:
            x = witness_ur(search, r).value(inst.n)
        except NoCertifiedWitness:
            assert all(set(c.period) in grid for c in _witness_candidates(search, r))
            continue
        res = exact_card(inst, x)
        assert (res.verdict, res.count) == ("Finite", r), (r, x)


_COVERING = sorted(p.stem for p in FIXTURES.glob("*.json") if covering_condition(load(p.stem)))
_SEARCHABLE = [name for name in _COVERING if all(strong_separation(load(name)))]


def _aligned(search):
    """(vector, residue, subset) for each vector of ``search`` in order and
    each residue h, ascending, whose aligned subset {n*p + h : p in support}
    is uniquely covered."""
    inst = search.analysis.inst
    types = xi_types(inst)
    for rv in search.vectors:
        _, _, _, _, support = rv
        for h in range(inst.n):
            subset = tuple(inst.n * p + h for p in support)
            if all(u in types for u in subset):
                yield rv, h, subset


def _assert_routes(search):
    """``routes[r]`` is every (vector, residue, subset, cycles) of a norm-r
    vector whose aligned subset reaches a cycling component, in the order
    of ``_aligned``, for each r that has one; r is achievable exactly then,
    and its witness is the first.  An r of 1..max_r is
    stored in ``statuses`` exactly when its status is not the default."""
    expected = {r: [] for r in range(1, search.max_r + 1)}
    for rv, h, subset in _aligned(search):
        _, norm, _, _, _ = rv
        cycles = tuple(sorted(search.graph.cycles_reached(subset)))
        if cycles:
            expected[norm].append((rv, h, subset, cycles))
    assert search.routes == {r: tuple(routes) for r, routes in expected.items() if routes}
    # stored keys lie in 1..max_r, ascending
    assert list(search.statuses) == [r for r in expected if r in search.statuses]
    for r, routes in expected.items():
        status = search.status(r)
        stored = status != (r, "NotReachable", None, None)
        assert (r in search.statuses) == stored
        if stored:
            assert search.statuses[r] is status
        assert (status.status == "Achievable") == bool(routes)
        if routes:
            assert status.witness == search.routes[r][0] == routes[0]
        else:
            assert status.witness is None


@pytest.mark.parametrize("name", ["span17"] + _SEARCHABLE)
def test_routes_match_aligned_subsets(name):
    inst = parse_instance(SCALED[name][0]) if name in SCALED else load(name)
    _assert_routes(enumerate_achievable_r(inst, 8))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(counting_instances(), st.integers(1, 6))
def test_routes_match_aligned_subsets_random(inst, max_r):
    if all(strong_separation(inst)):
        _assert_routes(enumerate_achievable_r(inst, max_r))


@pytest.mark.parametrize("name", ["span17"] + _SEARCHABLE)
def test_report_lists_every_status_and_no_vectors(name):
    """``r_search`` lists the status of every r in 1..max_r, read through
    ``search.status``, and not the vectors the search found them with; ``ur``
    has an entry for each stored status only."""
    inst = parse_instance(SCALED[name][0]) if name in SCALED else load(name)
    search = enumerate_achievable_r(inst, 8)
    data = report.build_report(inst, max_r=8)["data"]
    r_search = data["r_search"]
    assert sorted(r_search) == ["achievable", "max_r", "statuses"]
    assert r_search["achievable"] == search.achievable()
    assert list(r_search["statuses"]) == [str(r) for r in range(1, 9)]
    assert [entry["status"] for entry in r_search["statuses"].values()] == [
        search.status(r).status for r in range(1, 9)
    ]
    assert list(data["ur"]) == [str(r) for r in search.statuses]


@pytest.mark.parametrize("name", ["span17"] + _COVERING)
def test_report_builds_blocks_and_aligned_subsets_once(name, monkeypatch):
    """During ``build_report``, the context certifies the rows of each
    component of two or more vertices once and nothing certifies them
    again: the restricted graph's blocks are all certified, and the subset
    graph takes the block of each component that it holds as a component
    of singletons, the same block object; the search
    asks the subset graph for the cycles of each distinct aligned subset of
    its vectors once, and its routes take their subsets and cycles from
    those answers; ``dim_ur`` and ``witness_ur`` do neither."""
    inst = parse_instance(SCALED[name][0]) if name in SCALED else load(name)
    calls = {key: [] for key in ("scc", "search", "block_radius", "cycles_reached")}
    reading = []

    def spy(key, function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            calls[key].append((bool(reading), args, result))
            return result
        return wrapper

    def reader(function):
        def wrapper(*args, **kwargs):
            reading.append(function)
            try:
                return function(*args, **kwargs)
            finally:
                reading.pop()
        return wrapper

    monkeypatch.setattr(graphs, "scc", spy("scc", graphs.scc))
    for owner, key, attr in (
        (analysis, "block_radius", "block_radius"),
        (graphs.CongruentGraph, "cycles_reached", "cycles_reached"),
        (Analysis, "search", "search"),
    ):
        monkeypatch.setattr(owner, attr, spy(key, getattr(owner, attr)))
    for function in ("dim_ur", "witness_ur"):
        monkeypatch.setattr(report, function, reader(getattr(report, function)))
    report.build_report(inst)

    # the restricted graph, and the subset graph when the search runs
    decompositions = [d for _, _, d in calls["scc"]]
    assert len(decompositions) == 1 + len(calls["search"])
    built = [
        block_rows(graphs.component_matrix(args[0], comp))
        for _, args, d in calls["scc"] for comp in d.components if len(comp) > 1
    ]
    for _, _, search in calls["search"]:
        context, graph = search.analysis, search.graph
        xi = context.xi
        assert [d is xi.scc or d is graph.scc for d in decompositions] == [True, True]
        # read back from the context's memo: no block is certified again
        searched = context.blocks(graph.succ, graph.scc.components)
        singletons = {
            tuple(xi.number[graph.vertices[v]] for v in comp): i
            for i, comp in enumerate(graph.scc.components)
            if len(comp) > 1 and len(graph.vertices[comp[0]]) == 1
        }
        for i, comp in enumerate(xi.scc.components):
            if comp in singletons:
                shared = graph.scc.components[singletons[comp]]
                built.remove(block_rows(graphs.component_matrix(graph.succ, shared)))
                assert context.xi_blocks[i] is searched[singletons[comp]]
    # the 1x1 integer blocks that verdicts compare against are not components
    certified = [(inside, rows) for inside, (rows, *_), _ in calls["block_radius"] if len(rows) > 1]
    assert sorted(rows for _, rows in certified) == sorted(built)
    assert not any(inside for inside, _ in certified)
    assert not any(inside for inside, _, _ in calls["cycles_reached"])
    for _, _, search in calls["search"]:
        subsets = {subset for _, _, subset in _aligned(search)}
        asked = {args[1]: reached for _, args, reached in calls["cycles_reached"]}
        assert sorted(args[1] for _, args, _ in calls["cycles_reached"]) == sorted(subsets)
        for routes in search.routes.values():
            for _, _, subset, cycles in routes:
                assert cycles == tuple(sorted(asked[subset]))


def test_report_certifies_each_restricted_block_once(monkeypatch):
    """On the scaled n7 instance the restricted graph has one component of
    two or more vertices, 23 of them, and the search's subset graph reaches
    it as a component of singletons: one ``build_report`` runs
    ``block_radius`` on the rows of its matrix once, not once per graph."""
    inst = parse_instance(SCALED["n7"][0])
    xi = Analysis(inst).xi
    blocks = [
        block_rows(graphs.component_matrix(xi.succ, comp))
        for comp in xi.scc.components if len(comp) > 1
    ]
    assert [len(rows) for rows in blocks] == [23]
    certified = []

    def spy(rows, *args):
        certified.append(rows)
        return block_radius(rows, *args)

    monkeypatch.setattr(analysis, "block_radius", spy)
    report.build_report(inst)
    assert [certified.count(rows) for rows in blocks] == [1]


def test_blocks_certified_once_in_either_order(monkeypatch):
    """A context certifies n7's 23-vertex restricted-graph block once,
    and the restricted graph and the search's subset graph hold the same
    block object, whether the restricted graph's blocks are read before
    the subset graph's or after, as a report reads them."""
    inst = parse_instance(SCALED["n7"][0])
    certified = []

    def spy(rows, *args):
        certified.append(len(rows))
        return block_radius(rows, *args)

    monkeypatch.setattr(analysis, "block_radius", spy)
    search = enumerate_achievable_r(inst, 6)
    graph = search.graph
    context = Analysis(inst)
    restricted_first = context.xi_blocks
    searched = context.blocks(graph.succ, graph.scc.components)
    subset_first = search.analysis.blocks(graph.succ, graph.scc.components)
    for restricted, subset in (
        (restricted_first, searched),
        (search.analysis.xi_blocks, subset_first),
    ):
        [block] = [block for block in restricted if len(block[1]) > 1]
        assert len(block[1]) == 23
        assert [b for b in subset if b is block] == [block]
    assert certified.count(23) == 2


def test_search_and_witness_form_no_block(monkeypatch):
    """The multiplicity search and the witness walk read no block: on n7,
    whose search reaches the restricted graph's 23-vertex component,
    ``enumerate_achievable_r`` followed by ``witness_ur`` for every
    achievable r builds no component matrix and certifies no radius."""
    inst = parse_instance(SCALED["n7"][0])
    calls = []
    _spy_everywhere(monkeypatch, graphs.component_matrix, calls)
    _spy_everywhere(monkeypatch, block_radius, calls)
    search = enumerate_achievable_r(inst, 6)
    assert any(len(comp) == 23 for comp in search.graph.scc.components)
    assert search.achievable()
    for r in search.achievable():
        witness_ur(search, r)
    assert calls == []


def test_blocks_keyed_on_in_component_adjacency(cantor_diff):
    """A context gives components with the same in-component adjacency one
    block object, and a component of the same size with other edges a
    block of its own, each the sparse rows of its component's matrix with
    a certified radius."""
    # {0, 1} and {2, 3} are 2-cycles, {4, 5} a 2-cycle with a loop at 4, and
    # 6 a single vertex with a loop; the edge 5 -> 0 leaves its component
    succ = [(1,), (0,), (3,), (2,), (4, 5), (0, 4), (6,)]
    comps = graphs.scc(succ).components
    blocks = Analysis(cantor_diff).blocks(succ, comps)
    matrices = [graphs.component_matrix(succ, comp) for comp in comps]
    assert [rows for _, rows in blocks] == list(map(block_rows, matrices))
    assert [rr for rr, _ in blocks] == [block_radius(block_rows(m)) for m in matrices]
    assert blocks[0] is blocks[1]
    assert blocks[2] is not blocks[0]
    assert blocks[3] is _LOOP_BLOCKS[1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(counting_instances(), st.integers(1, 6))
def test_singleton_components_share_restricted_blocks(inst, max_r):
    """Each component of singletons of the search's subset graph holds the
    block object of the restricted-graph component with the same members."""
    search = enumerate_achievable_r(inst, max_r)
    context, graph = search.analysis, search.graph
    # the subset graph's blocks first: the restricted graph then reads the shared ones
    searched = context.blocks(graph.succ, graph.scc.components)
    xi = context.xi
    restricted = dict(zip(xi.scc.components, context.xi_blocks))
    for comp, block in zip(graph.scc.components, searched):
        members = [graph.vertices[v] for v in comp]
        if len(members[0]) == 1:
            assert block is restricted[tuple(xi.number[m] for m in members)]


@pytest.mark.parametrize("name", ["span17"] + _SEARCHABLE)
def test_report_builds_the_subset_graph_once(name, monkeypatch):
    """``build_report`` builds two graphs, each once, through the public
    ``build_congruent_graph`` on one xi types object and the base: its
    subset graph, which it reports, and the restricted graph, seeded with
    every singleton, which it reads for M."""
    inst = parse_instance(SCALED[name][0]) if name in SCALED else load(name)
    calls = []

    def spy(*args):
        graph = graphs.build_congruent_graph(*args)
        calls.append((args, graph))
        return graph

    monkeypatch.setattr(analysis, "build_congruent_graph", spy)
    data = report.build_report(inst)["data"]
    types = calls[0][0][0]
    assert types == xi_types(inst)
    assert [(args[0] is types, args[1]) for args, _ in calls] == [(True, inst.n)] * 2
    # the search builds its subset graph first; the report then reads M
    (_, subset_graph), ((_, _, seeds), restricted) = calls
    assert list(seeds) == [(u,) for u in types]
    assert [u for (u,) in restricted.vertices] == data["xi"]
    assert data["scc_subsets"]["components"] == [
        [",".join(map(str, subset_graph.vertices[v])) for v in comp]
        for comp in subset_graph.scc.components
    ]


def _spy_everywhere(monkeypatch, function, calls):
    """Replace ``function`` at every module of the package that binds it
    with a spy that records each call's arguments in ``calls``."""

    def spy(*args):
        calls.append(args)
        return function(*args)

    attr = function.__name__
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "slicekit" and getattr(module, attr, None) is function:
            monkeypatch.setattr(module, attr, spy)


_REPORTED = ["span17"] + sorted(p.stem for p in FIXTURES.glob("*.json"))


@pytest.mark.parametrize("name", _REPORTED)
def test_report_computes_xi_types_once(name, monkeypatch):
    """``build_report`` finds the xi types once, from its ``Analysis``
    context's interval census; the restricted graph and the search's
    subset graph are built on the context's types instead of finding them
    again."""
    inst = parse_instance(SCALED[name][0]) if name in SCALED else load(name)
    calls = []
    _spy_everywhere(monkeypatch, xi_types, calls)
    report.build_report(inst)
    [(first, census)] = calls
    assert first is inst and census == interval_census(inst)


@pytest.mark.parametrize("name", _REPORTED)
def test_report_reads_one_interval_census(name, monkeypatch):
    """``build_report`` takes one interval census, one
    ``interval_type_counts`` call per integer interval, and reads both its
    xi types and its ``integer_intervals`` from it."""
    inst = parse_instance(SCALED[name][0]) if name in SCALED else load(name)
    census_calls, typed = [], []
    _spy_everywhere(monkeypatch, interval_census, census_calls)
    _spy_everywhere(monkeypatch, interval_type_counts, typed)
    data = report.build_report(inst)["data"]
    assert census_calls == [(inst,)]
    assert sorted(u for _, u in typed) == list(u_range(inst))
    assert [entry["types"] for entry in data["integer_intervals"]] == [
        [[t, c] for t, c in interval_type_counts(inst, u)] for _, u in sorted(typed)
    ]


def test_analysis_forms_no_dense_matrix(monkeypatch):
    """No verdict forms a dense matrix: on the bundled instances
    ``dim_u1``, and the search followed by ``dim_ur`` and
    ``witness_ur`` for every achievable r, call ``component_matrix``
    nowhere, and ``build_report`` calls it once, for the M it prints."""
    calls = []
    _spy_everywhere(monkeypatch, graphs.component_matrix, calls)
    for path in sorted(FIXTURES.glob("*.json")):
        inst = load(path.stem)
        dim_u1(inst)
        if covering_condition(inst) and all(strong_separation(inst)):
            search = enumerate_achievable_r(inst, 6)
            for r in search.achievable():
                dim_ur(search, r)
                witness_ur(search, r)
        assert calls == [], path.stem
        report.build_report(inst)
        xi = Analysis(inst).xi
        assert calls == [(xi.succ, range(len(xi.succ)))], path.stem
        calls.clear()
