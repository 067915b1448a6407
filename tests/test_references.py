"""The sparse multiplicity search, the explored subset graph, the integer
power iteration, the expansion lengths and the packed counting kernel
against the constructions they replaced, written out here.

``_dense_reachable_vectors`` forms every product e_i T_{j1} ... T_{jk} as a
full span x span vector-matrix product, and ``dense_cube_count_vector``
one point's product the same way.  ``_per_vector_search`` classifies the
multiplicities with loops that visit every vector: each vector's grid
digits and aligned subsets are worked out for it alone, the grid scan runs
to the last vector, and a context of its own certifies the subset
graph's blocks.
``_tuple_subset_graph`` enumerates
every subset of every residue class as sorted member tuples, takes edges
from ``subset_successor`` and finds components by Kosaraju's two passes;
``_assert_restriction`` builds the matrix of each component it compares,
single vertices included, with ``component_matrix``, certifies its sparse
rows with ``block_radius`` and checks them against the block its context
formed.  The two lattice rules are checked against the forms
they replaced: ``lattice.children`` against a cube-by-cube enumeration
(``iter_cubes``/``weight``), ``interval_type_counts`` against
``scan_type_counts``, which tries every working interval t for a cube of
weight u - t, the restricted graph's matrix against ``_dense_xi_matrix``,
which tests each cell for n*t(u) <= v <= n*t(u) + n - 1, and ``aligned``
against ``subset_successor``; the context's restricted graph is checked
against the full graph of ``scan_full_graph`` induced on the uniquely
covered intervals, decomposed by ``_reference_decomposition``, whose
full reach sets also decide domination (``_closure_dominated``) and the
report's ``order`` as the code did before it searched where it reads.
``_dense_block_radius`` is the power iteration on dense rows with a
``Fraction`` per ratio.
``long_division_expansion`` writes out base-n digits until a remainder
recurs, keeping every remainder it has seen, and
``_summed_expansion_value`` adds one ``Fraction`` per digit.  The
references that other test modules read too live in ``helpers``.
``_pairs_exact_card`` steps raw (scaled offset, multiplicity) pairs with
``_step``, one Python iteration per offset and cube weight, and keys its
cycle checks on the digit phase.  The new code must reproduce all of them
exactly: the same vectors in the same canonical order; the same routes,
statuses and subset graph from the search; on the explored
vertices, the same vertices, edges, components, cycling components
reached (the reference's reach sets cut to its cycling components), blocks
and radii as the whole graph, read through ``graph.vertices``; the same
``RadiusResult``; the same expansion lengths and value; the same
``CardResult``; and, one digit at a time, the packed kernel
``counting._advance``, and ``counting._advance_pairs`` on the same
vector's (field, count) pairs, the same children as ``_step``.
``kernel_states`` steps one point's chains with that kernel, as
``exact_card`` does, and reads each depth's multiset back as pairs, which
off the base-n grid are the entries of the dense products.
``_assert_path_counts`` checks the one-pass counts of every point of one
denominator, ``counting._path_counts``, against ``exact_card`` point by
point and against the oracle's ``brute_force_cube_count`` at a depth where
every count has settled or passed the cap.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slicekit import (
    CongruentGraph, ProblemInstance, brute_force_cube_count, build_congruent_graph,
    covering_condition, dim_ur, enumerate_achievable_r, parse_instance, scc, strong_separation,
)
from slicekit.analysis import (
    _LOOP_BLOCKS, Analysis, RStatus, _integer_block, _reachable_vectors, spell_word,
)
from slicekit import counting
from slicekit.counting import (
    DEFAULT_BUDGET, CardResult, CycleCertificate, exact_card, expansion_value,
)
from slicekit.errors import HypothesisViolated, WideEnclosure
from slicekit.graphs import aligned, component_matrix, reachable
from slicekit.lattice import children, interval_type_counts, u_range, xi_types
from slicekit.report import _scc_json
from slicekit.spectral import (
    _MAX_ITERATIONS, DEFAULT_TOLERANCE, RadiusResult, block_radius, compare_radii,
    transition_matrices,
)

from conftest import FIXTURES, counting_instances, load
from helpers import (
    block_rows, dense_cube_count_vector, long_division_expansion, scan_full_graph,
    scan_type_counts, spelled, subset_successor,
)
from test_golden import SCALED
from test_properties import instances

BUNDLED = sorted(p.stem for p in FIXTURES.glob("*.json"))


def _count_instance(label):
    return parse_instance(SCALED[label][0]) if label in SCALED else load(label)


def _dense_reachable_vectors(inst, max_r, least=True):
    """Every product of norm <= max_r, dense, with the (word, i) of its
    canonical discovery.  With ``least`` false a child keeps the first of
    its candidates made, parents in canonical order and each parent under
    every digit in turn, not the least of them."""
    mats = [m.entries for m in transition_matrices(inst)]
    span = inst.span
    found = {}
    level = {}
    for i in range(inst.proj_min, inst.proj_max):
        vec = tuple(1 if p == i else 0 for p in range(inst.proj_min, inst.proj_max))
        level[vec] = ((), i)
    for vec, disc in level.items():
        found[vec] = disc
    while level:
        nxt = {}
        for vec, (word, i) in sorted(level.items(), key=lambda kv: (kv[1][0], kv[1][1])):
            for j, rows in enumerate(mats):
                child = tuple(
                    sum(vec[u] * rows[u][v] for u in range(span)) for v in range(span)
                )
                if sum(child) > max_r:
                    continue
                cand = (word + (j,), i)
                if child in found:
                    continue
                if child not in nxt or (least and cand < nxt[child]):
                    nxt[child] = cand
        for vec, disc in nxt.items():
            found[vec] = disc
        level = nxt
    return found


def _dense_records(inst, max_r, least=True):
    """The dense products as ordered records: the canonical order
    (len(word), word, i) is part of the contract."""
    dense = sorted(
        _dense_reachable_vectors(inst, max_r, least).items(),
        key=lambda kv: (len(kv[1][0]), kv[1][0], kv[1][1]),
    )
    offsets = range(inst.proj_min, inst.proj_max)
    return tuple(
        (
            tuple(c for c in vec if c),
            sum(vec),
            i,
            word,
            tuple(p for p, c in zip(offsets, vec) if c),
        )
        for vec, (word, i) in dense
    )


def _assert_same_vectors(inst, max_r):
    assert spelled(_reachable_vectors(inst, max_r)) == _dense_records(inst, max_r)


def test_sparse_vectors_match_dense_bundled():
    for name in BUNDLED:
        for max_r in (1, 3, 6, 9):
            _assert_same_vectors(load(name), max_r)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(counting_instances(), st.integers(1, 8))
def test_sparse_vectors_match_dense_random(inst, max_r):
    _assert_same_vectors(inst, max_r)


@pytest.mark.parametrize("max_r", [2, 6])
@pytest.mark.parametrize("label", ["span9", "span15", "span17"])
def test_sparse_vectors_match_dense_scaled(label, max_r):
    _assert_same_vectors(_count_instance(label), max_r)


def test_records_share_one_node_per_word():
    """Each record's word is a node, () for the empty word or a pair
    (parent node, digit), and every record of one word holds the same node
    object, so a word is kept once however many vectors it discovers.  On
    n=3, {0,2}^2, (-1, 2) at max_r 60 the words reach 59 digits, and on
    (-4, 5) at max_r 6 33 nonempty words discover two vectors or more;
    spelled out, the records are the dense products' records, in order."""
    for coefficients, max_r in (((-1, 2), 60), ((-4, 5), 6)):
        inst = ProblemInstance(n=3, digit_sets=((0, 2), (0, 2)), coefficients=coefficients)
        records = _reachable_vectors(inst, max_r)
        nodes, shared = {}, set()
        for record in records:
            word = record[3]
            assert word == () or (type(word) is tuple and len(word) == 2 and word[1] in (0, 1, 2))
            digits = spell_word(word)
            if digits in nodes:
                shared.add(digits)
            assert nodes.setdefault(digits, word) is word
        assert spelled(records) == _dense_records(inst, max_r)
        if max_r == 60:
            assert len(records) == 1832 and max(map(len, nodes)) == 59
        else:
            assert len(shared - {()}) == 33


def test_routes_hold_spelled_words():
    """The search returns no word node: each route's record holds its word
    as a flat tuple of digits, so comparing, printing or pickling a route
    never recurses through a word as deep as the word is long.  On n=3,
    {0,2}^2, (-1, 2) at max_r 200 the routes' words reach 199 digits; each
    route's record is the closure's record, spelled out."""
    inst = ProblemInstance(n=3, digit_sets=((0, 2), (0, 2)), coefficients=(-1, 2))
    records = set(spelled(_reachable_vectors(inst, 200)))
    search = enumerate_achievable_r(inst, 200)
    words = set()
    for rv, _, _, _ in (route for rs in search.routes.values() for route in rs):
        assert type(rv) is tuple and rv in records
        word = rv[3]
        assert type(word) is tuple and all(type(d) is int for d in word)
        words.add(word)
    assert max(map(len, words)) == 199


@pytest.mark.parametrize("label", ["span9", "span15", "span17"])
def test_scaled_vectors_see_the_tie_break(label):
    """At max_r 6 some child of span9, span15 and span17 is made by two
    parents of one level, and the first one made, parents in canonical
    order with each parent under every digit in turn, is not its canonical
    discovery: a closure that kept the first child made gives other
    records, so the scaled cases above check the tie-break."""
    inst = _count_instance(label)
    assert _dense_records(inst, 6, least=False) != spelled(_reachable_vectors(inst, 6))


def _per_vector_search(inst, max_r, vectors):
    """The routes and statuses of the multiplicity search on ``vectors``,
    by loops that visit every vector: each vector's open grid digits and
    aligned subsets are worked out for that vector alone, the grid scan
    runs to the last vector, and the subset graph is built on its own."""
    n, lo, hi = inst.n, inst.proj_min, inst.proj_max
    gamma = {}
    for p in range(lo, hi + 1):
        res = exact_card(inst, Fraction(p), budget=max_r)
        gamma[p] = res.count if res.verdict == "Finite" else None
    countable = {}
    for p, g in sorted(gamma.items()):
        if g is not None and 1 <= g <= max_r and g not in countable:
            countable[g] = Fraction(p)
    for counts, _, i, word, support in vectors:
        for j in range(1, n):
            kids = [children(inst, j, p) for p in support]
            if any(gamma[child] is None for pairs in kids for child, _ in pairs):
                continue
            total = sum(
                c * sum(k * gamma[child] for child, k in pairs)
                for c, pairs in zip(counts, kids)
            )
            if 1 <= total <= max_r and total not in countable:
                countable[total] = expansion_value(n, i, word + (j,), (0,))
    types = xi_types(inst)
    per_vector = []
    for rv in vectors:
        _, _, _, _, support = rv
        per_vector.append((rv, aligned(types, n, [n * p for p in support])))
    graph = build_congruent_graph(types, n, {m for _, pairs in per_vector for _, m in pairs})
    routes = {}
    for rv, pairs in per_vector:
        _, norm, _, _, _ = rv
        for h, m in pairs:
            cycles = tuple(sorted(graph.cycles_reached(m)))
            if cycles:
                routes.setdefault(norm, []).append((rv, h, m, cycles))
    statuses = {}
    for r in sorted({norm for _, norm, _, _, _ in vectors} | countable.keys()):
        if r in routes:
            statuses[r] = RStatus(r, "Achievable", routes[r][0], None)
        else:
            statuses[r] = RStatus(r, "OnlyOnCountableSet", None, countable.get(r))
    return graph, {r: tuple(routes[r]) for r in sorted(routes)}, statuses


def _assert_per_support_search(inst, max_r):
    """The search does its bookkeeping once per support and its context
    forms the subset graph's blocks; it must give the dense products'
    vectors, and the routes, statuses, subset graph and blocks of the
    per-vector loops, whose blocks a fresh context forms."""
    search = enumerate_achievable_r(inst, max_r)
    vectors = spelled(_reachable_vectors(inst, max_r))
    assert vectors == _dense_records(inst, max_r)
    graph, routes, statuses = _per_vector_search(inst, max_r, vectors)
    assert search.routes == routes
    assert search.statuses == statuses
    assert search.graph == graph
    assert _blocks(inst, graph) == search.analysis.blocks(graph.succ, graph.scc.components)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(counting_instances(), st.integers(1, 8))
def test_per_support_search_matches_per_vector_loops_random(inst, max_r):
    if all(strong_separation(inst)):
        _assert_per_support_search(inst, max_r)


@pytest.mark.parametrize("label", ["cantor_diff", "span13", "n5", "n7", "l3"])
def test_per_support_search_matches_per_vector_loops(label):
    _assert_per_support_search(_count_instance(label), 6)


def test_grid_scan_stops_only_when_every_r_has_an_example():
    """On n=3, {0,2}^2, coefficients (3, 1), at max_r 3, r = 3 occurs only
    on the grid, and the scan finds it after the examples of r = 1 and 2:
    a scan that stopped one example short would call it NotReachable."""
    inst = ProblemInstance(n=3, digit_sets=((0, 2), (0, 2)), coefficients=(3, 1))
    _assert_per_support_search(inst, 3)
    status = enumerate_achievable_r(inst, 3).status(3)
    assert (status.status, status.countable_example) == ("OnlyOnCountableSet", Fraction(2, 3))


@pytest.mark.parametrize("name", ["base7_double", "l3", "l4", "n5"])
def test_packed_norms_match_dense_at_field_width_edges(name):
    """The n child norms share one int, and a vector's counts another, a
    field of (max_r * cubes).bit_length() bits per digit or offset.  On
    instances with many cubes (16, 8 and 16), at each max_r where
    max_r * cubes reaches a power of two and at the one after it, and on
    n5's 9 cubes at max_r 7, where it is 2^6 - 1, and 8, the widest field
    must not spill into the next one: the vectors are those of the dense
    products, and the search stepped the digit table of that width."""
    inst = _count_instance(name)
    cubes = inst.cube_count
    assert cubes in (8, 9, 16)
    # max_r * cubes is a power of two at 1, 2, 4 and 8, just past one at 3, 5, 9
    for max_r in (7, 8) if cubes == 9 else (1, 2, 3, 4, 5, 8, 9):
        _assert_same_vectors(inst, max_r)
        assert (max_r * cubes).bit_length() in counting._RECORDS[id(inst)].tables


def _kosaraju(succ):
    """Strongly connected components of the successor map ``succ`` (every
    vertex a key) by Kosaraju's two passes: depth-first finishing order on
    the graph, then depth-first search of the reversed graph in reverse
    finishing order."""
    order, seen = [], set()
    for root in succ:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(succ[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    pred = {v: [] for v in succ}
    for v, targets in succ.items():
        for w in targets:
            pred[w].append(v)
    comps, assigned = [], set()
    for root in reversed(order):
        if root in assigned:
            continue
        assigned.add(root)
        comp, stack = [], [root]
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in pred[v]:
                if w not in assigned:
                    assigned.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _tuple_subset_graph(inst):
    """(vertices, adjacency, components, reach, comp_of, cycling) of the
    whole subset graph, every nonempty subset of every residue class, built
    on sorted member tuples.  Radii are certified by ``_assert_restriction``
    for the components it compares only."""
    types = xi_types(inst)
    n = inst.n
    classes = {}
    for u in sorted(types):
        classes.setdefault(u % n, []).append(u)
    vertices = sorted(
        tuple(cls[i] for i in range(len(cls)) if mask >> i & 1)
        for cls in classes.values()
        for mask in range(1, 2 ** len(cls))
    )
    keys = set(vertices)
    adjacency = {}
    for v in vertices:
        out = []
        for h in range(n):
            img = subset_successor(types, n, v, h)
            if img is not None and img in keys:
                out.append((h, img))
        adjacency[v] = tuple(out)
    succ = {k: tuple(t for _, t in outs) for k, outs in adjacency.items()}
    return (tuple(vertices), adjacency, *_reference_decomposition(succ))


def _reference_decomposition(succ):
    """(components, reach, comp_of, cycling) of the graph whose successor
    map is ``succ``: Kosaraju's components, each sorted, in order of their
    smallest vertex; each one's reach set by a search over the vertices;
    comp_of keyed on the vertices themselves."""
    comps = sorted((tuple(sorted(c)) for c in _kosaraju(succ)), key=lambda c: c[0])
    comp_of = {v: idx for idx, comp in enumerate(comps) for v in comp}
    reach = []
    for comp in comps:
        seen = set(comp)
        stack = list(comp)
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(frozenset(comp_of[w] for w in seen))
    cycling = frozenset(
        idx for idx, c in enumerate(comps) if len(c) > 1 or c[0] in succ[c[0]]
    )
    return tuple(comps), tuple(reach), comp_of, cycling


def _assert_restricted_graph(inst):
    """The context's restricted graph is the full graph (``scan_full_graph``)
    induced on the intervals that one cube covers (``scan_type_counts``):
    those u as singletons, ascending, the full graph's edges among them, and
    the components, reach sets and cycling components that Kosaraju's
    passes and a search over the vertices find on them: each component's
    ``cycles`` is its reach set cut to the cycling components, and a
    ``reachable`` search from its first vertex meets exactly its reach
    set."""
    full = scan_full_graph(inst)
    unique = {u for u in full if [c for _, c in scan_type_counts(inst, u)] == [1]}
    succ = {(u,): tuple((v,) for v in full[u] if v in unique) for u in sorted(unique)}
    comps, reach, comp_of, cycling = _reference_decomposition(succ)
    xi = Analysis(inst).xi
    members = xi.vertices
    assert members == tuple(succ)
    assert xi.number == {m: v for v, m in enumerate(members)}
    assert {members[v]: tuple(members[w] for w in out) for v, out in enumerate(xi.succ)} == succ
    assert tuple(tuple(members[v] for v in comp) for comp in xi.scc.components) == comps
    assert xi.scc.cycles == tuple(r & cycling for r in reach)
    assert xi.scc.comp_of == [comp_of[m] for m in members]
    assert [
        {xi.scc.comp_of[v] for v in reachable(xi.succ, comp[:1])} for comp in xi.scc.components
    ] == list(reach)


@pytest.mark.parametrize("label", BUNDLED + sorted(SCALED))
def test_restricted_graph_matches_full_graph_pinned(label):
    _assert_restricted_graph(_count_instance(label))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(counting_instances())
def test_restricted_graph_matches_full_graph_random(inst):
    _assert_restricted_graph(inst)


def _closure_dominated(context, block):
    """Domination by the rule that read a reach set per component: the
    union of the reach sets of every restricted-graph component whose block
    compares at least ``block`` covers every working interval."""
    xi, types = context.xi, context.types
    if not types:
        return False
    comps, reach, _, _ = _reference_decomposition(dict(enumerate(xi.succ)))
    reached = set()
    for idx, (rr, matrix) in enumerate(context.xi_blocks):
        if compare_radii(rr, block[0], matrix, block[1]) >= 0:
            reached |= reach[idx]
    covered = {types[xi.vertices[v][0]] for j in reached for v in comps[j]}
    return set(range(context.inst.proj_min, context.inst.proj_max)) <= covered


@pytest.mark.parametrize("label", BUNDLED + sorted(SCALED))
def test_dominated_matches_full_closure(label, monkeypatch):
    """``Analysis.dominated``, one search from the dominating components,
    answers as the union of their full reach sets does, for the blocks
    [[1]], [[2]] and [[3]] and the block where each achievable r's
    dimension is taken, the one ``dim_ur`` asks about."""
    inst = _count_instance(label)
    try:
        search = enumerate_achievable_r(inst, 6)
    except HypothesisViolated:
        search = None
    context = search.analysis if search else Analysis(inst)
    blocks = [_integer_block(value) for value in (1, 2, 3)]
    if search:
        dominated = Analysis.dominated

        def spy(self, block):
            blocks.append(block)
            return dominated(self, block)

        monkeypatch.setattr(Analysis, "dominated", spy)
        for r in search.achievable():
            dim_ur(search, r)
        monkeypatch.undo()
        assert len(blocks) == 3 + len(search.achievable()), label
    for block in blocks:
        assert context.dominated(block) == _closure_dominated(context, block), (label, block)


@st.composite
def successor_tables(draw):
    """A successor table on 1..10 vertices, with cycles and self-loops."""
    size = draw(st.integers(1, 10))
    targets = st.lists(st.integers(0, size - 1), max_size=4, unique=True).map(sorted)
    return tuple(tuple(out) for out in draw(st.lists(targets, min_size=size, max_size=size)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(successor_tables())
def test_report_order_matches_full_closure(succ):
    """The report's ``order``, one ``reachable`` search per component, is
    every pair (i, j) with j in the reach set of component i, and
    ``cycles`` each reach set cut to the cycling components."""
    comps, reach, _, cycling = _reference_decomposition(dict(enumerate(succ)))
    decomposition = scc(succ)
    assert decomposition.cycles == tuple(r & cycling for r in reach)
    graph = CongruentGraph(
        n=1,
        vertices=tuple((v,) for v in range(len(succ))),
        number={(v,): v for v in range(len(succ))},
        succ=succ,
        scc=decomposition,
    )
    # any blocks will do: only ``order`` is read
    blocks = [_LOOP_BLOCKS[0]] * len(comps)
    order = _scc_json(graph, blocks, range(len(succ)))["order"]
    assert order == [[i, j] for i, r in enumerate(reach) for j in sorted(r)]


def _assert_restriction(graph, blocks, reference):
    """The explored ``graph``, whose components have the ``blocks`` a
    context formed, equals the whole subset graph ``reference`` restricted
    to the explored vertices, which are closed under successors and hold
    whole components."""
    vertices, adjacency, comps, reach, comp_of, cycling = reference
    members = graph.vertices
    explored = set(members)
    assert members == tuple(v for v in vertices if v in explored)
    assert graph.number == {m: v for v, m in enumerate(members)}
    # each edge labelled with the residue of its target, ascending per vertex
    assert {
        members[v]: tuple((graph.residue(t), members[t]) for t in targets)
        for v, targets in enumerate(graph.succ)
    } == {m: adjacency[m] for m in members}
    kept = [idx for idx, comp in enumerate(comps) if comp[0] in explored]
    position = {idx: i for i, idx in enumerate(kept)}
    assert tuple(tuple(members[v] for v in c) for c in graph.scc.components) == tuple(
        comps[idx] for idx in kept
    )
    assert graph.scc.cycles == tuple(
        frozenset(position[j] for j in reach[idx] & cycling) for idx in kept
    )
    assert graph.scc.comp_of == [position[comp_of[m]] for m in members]
    assert [
        {graph.scc.comp_of[v] for v in reachable(graph.succ, comp[:1])}
        for comp in graph.scc.components
    ] == [{position[j] for j in reach[idx]} for idx in kept]
    succ = {m: tuple(t for _, t in adjacency[m]) for m in members}
    matrices = [component_matrix(succ, comps[idx]) for idx in kept]
    # a single vertex's block is [[loop bit]], one shared block per bit
    assert [rows for _, rows in blocks] == list(map(block_rows, matrices))
    for block, matrix in zip(blocks, matrices):
        assert len(matrix) > 1 or block is _LOOP_BLOCKS[matrix[0][0]]
    assert [rr for rr, _ in blocks] == [block_radius(block_rows(m)) for m in matrices]


def _blocks(inst, graph):
    """The blocks of ``graph``'s components, formed by a fresh context."""
    return Analysis(inst).blocks(graph.succ, graph.scc.components)


def _search_blocks(search):
    """The blocks of the search's subset graph, formed by its context."""
    graph = search.graph
    return search.analysis.blocks(graph.succ, graph.scc.components)


def test_explored_subset_graph_matches_whole_bundled():
    """The search's graph where the search runs, and the graph explored
    from every subset, which is the whole graph."""
    for name in BUNDLED:
        inst = load(name)
        reference = _tuple_subset_graph(inst)
        graph = build_congruent_graph(xi_types(inst), inst.n, reference[0])
        _assert_restriction(graph, _blocks(inst, graph), reference)
        if covering_condition(inst) and all(strong_separation(inst)):
            search = enumerate_achievable_r(inst, 6)
            _assert_restriction(search.graph, _search_blocks(search), reference)


def _whole_subset_count(inst):
    """The vertices of the whole subset graph: 2^|class| - 1 nonempty
    subsets of each residue class of the xi types."""
    classes = {}
    for u in xi_types(inst):
        classes[u % inst.n] = classes.get(u % inst.n, 0) + 1
    return sum(2**size - 1 for size in classes.values())


# Only the labels whose whole graph _tuple_subset_graph can enumerate: span
# 21 has 49149 subsets, span 25 already 393213.
@pytest.mark.parametrize(
    "label",
    sorted(
        label for label, (document, _) in SCALED.items()
        if _whole_subset_count(parse_instance(document)) <= 2**16
    ),
)
def test_explored_subset_graph_matches_whole_scaled(label):
    """The graph ``analyze`` builds for the benchmark's scaled family and
    span 21."""
    inst = parse_instance(SCALED[label][0])
    search = enumerate_achievable_r(inst, 6)
    _assert_restriction(search.graph, _search_blocks(search), _tuple_subset_graph(inst))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_explored_subset_graph_matches_whole_random(inst, data):
    """The graph explored from random seeds, the whole graph's vertices."""
    if len(xi_types(inst)) > 12:
        return
    reference = _tuple_subset_graph(inst)
    if not reference[0]:
        return
    seeds = data.draw(st.lists(st.sampled_from(reference[0]), max_size=4))
    graph = build_congruent_graph(xi_types(inst), inst.n, seeds)
    _assert_restriction(graph, _blocks(inst, graph), reference)


def _dense_xi_matrix(inst):
    """M cell by cell: u -> v exactly when n*t(u) <= v <= n*t(u) + n - 1."""
    types = xi_types(inst)
    us = sorted(types)
    n = inst.n
    return tuple(
        tuple(1 if n * types[u] <= v <= n * types[u] + n - 1 else 0 for v in us) for u in us
    )


def _assert_lattice_rules(inst):
    n, lo, hi = inst.n, inst.proj_min, inst.proj_max
    for d in range(n):
        for t in range(lo, hi + 1):
            kids = Counter(d + n * t - inst.weight(digits) for digits in inst.iter_cubes())
            assert children(inst, d, t) == sorted(
                (c, count) for c, count in kids.items() if lo <= c <= hi
            ), (d, t)
    for u in range(n * lo - 2 * n, n * hi + 2 * n):
        assert interval_type_counts(inst, u) == scan_type_counts(inst, u), u
        if u not in u_range(inst):
            assert interval_type_counts(inst, u) == [], u
    xi = Analysis(inst).xi
    matrix = component_matrix(xi.succ, range(len(xi.succ)))
    assert matrix == _dense_xi_matrix(inst)
    assert xi.succ == tuple(tuple(j for j, bit in enumerate(row) if bit) for row in matrix)


@pytest.mark.parametrize("label", BUNDLED + sorted(SCALED))
def test_lattice_rules_match_references_pinned(label):
    _assert_lattice_rules(_count_instance(label))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances())
def test_lattice_rules_match_references_random(inst):
    """``children`` at every digit and every t of [proj_min, proj_max], the
    interval types in and around the range, and M."""
    _assert_lattice_rules(inst)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_aligned_matches_subset_successor(inst, data):
    """``aligned`` on a subset's base keeps the images that
    ``subset_successor`` keeps, for subsets of every residue class."""
    types = xi_types(inst)
    n = inst.n
    classes = {}
    for u in types:
        classes.setdefault(u % n, []).append(u)
    for cls in classes.values():
        members = tuple(sorted(data.draw(st.sets(st.sampled_from(cls), min_size=1))))
        expected = [
            (h, image) for h in range(n)
            if (image := subset_successor(types, n, members, h)) is not None
        ]
        assert aligned(types, n, sorted({n * types[u] for u in members})) == expected


def _dense_block_radius(rows, verts, tolerance=DEFAULT_TOLERANCE):
    k = len(verts)
    if k == 1:
        v = Fraction(rows[verts[0]][verts[0]])
        return RadiusResult(v, v, float(v))
    shifted = [
        [rows[a][b] + (1 if a == b else 0) for b in verts] for a in verts
    ]
    x = [1] * k
    tol = Fraction(tolerance)
    best_lo = Fraction(0)
    best_hi = None
    for _ in range(_MAX_ITERATIONS):
        y = [sum(shifted[i][j] * x[j] for j in range(k)) for i in range(k)]
        ratios = [Fraction(y[i], x[i]) for i in range(k)]
        lo, hi = min(ratios), max(ratios)
        best_lo = max(best_lo, lo)
        best_hi = hi if best_hi is None else min(best_hi, hi)
        if best_hi - best_lo <= tol:
            lo, hi = best_lo - 1, best_hi - 1
            return RadiusResult(lo, hi, float((lo + hi) / 2))
        x = y
        top = max(x)
        if top.bit_length() > 512:
            shift = top.bit_length() - 256
            x = [max(1, v >> shift) for v in x]
    raise WideEnclosure("power iteration did not converge")


@st.composite
def _connected_block(draw):
    """A strongly connected nonnegative integer block of 1-20 vertices: a
    single vertex with a loop of any weight, or a cycle through all
    vertices plus random entries, some of them large, and loops of any
    weight, so the identity shift often adds a second pair for the
    diagonal column of a row."""
    k = draw(st.one_of(st.just(1), st.integers(2, 20)))
    entries = st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3, 7, 40])
    rows = [[draw(entries) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        rows[i][i] = draw(st.sampled_from([0, 1, 2, 5, 40]))
        if k > 1:
            rows[i][(i + 1) % k] = max(rows[i][(i + 1) % k], 1)
    return rows


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_connected_block(), st.sampled_from([1e-9, 1e-3, 0.5]))
def test_integer_block_radius_matches_dense(rows, tolerance):
    """Power iteration over sparse rows, with integer cross-multiplied
    ratio picks, gives the same enclosure as the dense Fraction loop, also
    with the vertices in reverse order."""
    verts = list(range(len(rows)))
    assert block_radius(block_rows(rows), tolerance) == _dense_block_radius(rows, verts, tolerance)
    verts.reverse()
    reordered = block_rows([[rows[a][b] for b in verts] for a in verts])
    assert block_radius(reordered, tolerance) == _dense_block_radius(rows, verts, tolerance)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(counting_instances(), st.data())
def test_kernel_states_match_dense_products(inst, data):
    """At a point off the base-n grid, x = p/q, the chains the automaton
    keeps at depth k, for every k up to 8, are the matrix route's counts:
    the chains at scaled offset r + q * t number the entry at t of the
    dense product e_i T_{j1} ... T_{jk}."""
    q = data.draw(st.integers(2, 60))
    x = Fraction(data.draw(st.integers(q * inst.proj_min, q * inst.proj_max)), q)
    assume(not long_division_expansion(inst, x).boundary)
    k = data.draw(st.integers(0, 8))
    for depth, state in enumerate(kernel_states(inst, x, k)):
        vec = [0] * inst.span
        for a, m in state:
            vec[a // x.denominator - inst.proj_min] = m
        assert tuple(vec) == dense_cube_count_vector(inst, x, depth), depth


@st.composite
def _expansion_points(draw):
    """A base n of 2-12 and a point of [-1, 1] whose denominator is
    n^a * g^b * m for a divisor g > 1 of n, so that it often shares
    factors with n."""
    n = draw(st.integers(2, 12))
    g = draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
    q = n ** draw(st.integers(0, 3)) * g ** draw(st.integers(0, 4)) * draw(st.integers(1, 600))
    inst = ProblemInstance(n=n, digit_sets=((0, n - 1), (0, n - 1)), coefficients=(-1, 1))
    return inst, Fraction(draw(st.integers(-q, q)), q)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_expansion_points())
def test_expansion_matches_long_division(point):
    """The preperiod and period lengths, found from gcd steps and the
    multiplicative order of n, are those of the expansion long division
    writes out."""
    inst, x = point
    exp = long_division_expansion(inst, x)
    assert counting._expansion_lengths(inst, x) == (len(exp.preperiod), len(exp.period))


def _summed_expansion_value(n, integer_part, preperiod, period):
    """The value of an eventually periodic expansion, one Fraction added
    per preperiod digit and one for the period."""
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


@st.composite
def _digit_strings(draw):
    """A base n of 2-12, an integer part, a preperiod and a period; the
    period is often empty, all zeros or all n - 1."""
    n = draw(st.integers(2, 12))
    digits = st.lists(st.integers(0, n - 1), max_size=10)
    uniform = st.builds(
        lambda d, k: (d,) * k, st.sampled_from([0, n - 1]), st.integers(1, 6)
    )
    period = draw(digits | uniform | st.just(()))
    return n, draw(st.integers(-4, 4)), tuple(draw(digits)), tuple(period)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_digit_strings())
def test_expansion_value_matches_summed_fractions(case):
    """``expansion_value`` forms one Fraction from integer Horner steps, and
    gives the value the per-digit sum gives."""
    value = counting.expansion_value(*case)
    assert type(value) is Fraction
    assert value == _summed_expansion_value(*case)


def _scaled_weights(inst, q):
    """(q * cube weight, number of cubes of that weight)."""
    return [(q * w, count) for w, count in inst.cube_weights.items()]


def _step(pairs, n, weights, lo, hi):
    """One digit on (scaled offset, multiplicity) pairs: the chains at
    offset a branch into the cubes whose closed projection interval contains
    it, that is to n * a - q * w inside [lo, hi].  Chains sharing an offset
    branch alike, so each pair is advanced once.  Returns the children as
    scaled offset -> multiplicity, unordered."""
    children = {}
    get = children.get
    for a, m in pairs:
        base = n * a
        for qw, count in weights:
            v = base - qw
            if lo <= v <= hi:
                children[v] = get(v, 0) + m * count
    return children


def _pairs_steps(inst, x, budget=DEFAULT_BUDGET, max_depth=None):
    """The raw pairs loop of ``exact_card``, one Python iteration per
    offset and cube weight, keyed on (phase, pairs) and (phase, support).
    Returns, for each depth up to the one where it stops within ``budget``
    and ``max_depth``, the cardinality, the first depth of the same (phase,
    pairs) and the first (depth, cardinality) of the same (phase, support);
    and the depth cap, ``max_depth`` or its default.  The steps do not
    depend on the limits: lower ones only stop them sooner."""
    x = Fraction(x)
    exp = long_division_expansion(inst, x)
    pre = len(exp.preperiod)
    per = len(exp.period)
    if max_depth is None:
        max_depth = 64 * (pre + per)
    n, q = inst.n, x.denominator
    lo, hi = q * inst.proj_min, q * inst.proj_max
    weights = _scaled_weights(inst, q)
    pairs = ((x.numerator, 1),)
    card, depth = 1, 0
    seen_exact, seen_support, steps = {}, {}, []
    while True:
        phase = depth if depth < pre else pre + (depth - pre) % per
        start = seen_exact.setdefault((phase, pairs), depth)
        support = tuple([a for a, _ in pairs])
        depth0, card0 = seen_support.setdefault((phase, support), (depth, card))
        steps.append((card, start, depth0, card0))
        if start != depth or card > card0 or card > budget or depth >= max_depth:
            return steps, max_depth
        children = _step(pairs, n, weights, lo, hi)
        pairs = tuple(sorted(children.items()))
        card = sum(children.values())
        depth += 1


def _pairs_verdict(steps, budget, max_depth):
    """The CardResult of the first of ``steps`` where the loop stops within
    ``budget`` and ``max_depth``: an exact recurrence, then a support
    recurrence with a larger cardinality, then the limits."""
    for depth, (card, start, depth0, card0) in enumerate(steps):
        if start != depth:
            return CardResult("Finite", card, depth, CycleCertificate(start, depth - start, card, card))
        if card > card0:
            cert = CycleCertificate(depth0, depth - depth0, card0, card)
            return CardResult("Infinite", None, depth, cert)
        if card > budget or depth >= max_depth:
            return CardResult("ExceedsBudget", card, depth, None)
    raise AssertionError("the steps end before the loop stops at these limits")


def _pairs_exact_card(inst, x, budget=DEFAULT_BUDGET, max_depth=None):
    """``exact_card`` stepping the raw pairs."""
    steps, max_depth = _pairs_steps(inst, x, budget, max_depth)
    return _pairs_verdict(steps, budget, max_depth)


def _grid(inst, max_q, max_k):
    """Every p/q of the range with q <= max_q, and every p/n^k with
    k <= max_k."""
    denominators = [*range(1, max_q + 1), *(inst.n**k for k in range(1, max_k + 1))]
    return sorted(
        {
            Fraction(p, q)
            for q in denominators
            for p in range(q * inst.proj_min, q * inst.proj_max + 1)
        }
    )


# The bundled instances that meet the hypotheses, and two scaled ones.
@pytest.mark.parametrize(
    "label", ["cantor_diff", "cantor_double_diff", "cantor_sum", "span9", "n5"]
)
def test_exact_card_matches_pairs_reference_grid(label):
    """The packed digit tables give the raw pairs loop's CardResult, all
    four fields, at every p/q with q <= 40 and every p/n^k with k <= 5,
    under every budget and depth cut.  The raw pairs are stepped once per
    point, at the widest limits, and every cut is read from those steps."""
    inst = _count_instance(label)
    for x in _grid(inst, 40, 5):
        steps, default_depth = _pairs_steps(inst, x, 4096, None)
        for budget in (1, 2, 7, 4096):
            for max_depth in (0, 1, 3, None):
                cap = default_depth if max_depth is None else max_depth
                expected = _pairs_verdict(steps, budget, cap)
                assert exact_card(inst, x, budget, max_depth) == expected, (x, budget, max_depth)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    counting_instances(),
    st.data(),
    st.sampled_from([1, 2, 3, 7, 64, 4096]),
    st.none() | st.integers(0, 8),
)
def test_exact_card_matches_pairs_reference_random(inst, data, budget, max_depth):
    """Random instances, points (half of them base-n boundary points),
    budgets and depth cuts."""
    q = data.draw(st.integers(1, 60) | st.sampled_from([inst.n, inst.n**2, inst.n**3]))
    x = Fraction(data.draw(st.integers(q * inst.proj_min, q * inst.proj_max)), q)
    assert exact_card(inst, x, budget, max_depth) == _pairs_exact_card(inst, x, budget, max_depth)


# In base 3, 7, 101, 127 and 303 have periods 6, 100, 126 and 100 (303 with
# a preperiod of one digit); span9 takes every 4th numerator.
@pytest.mark.parametrize("label, stride", [("cantor_diff", 1), ("cantor_sum", 1), ("span9", 4)])
def test_exact_card_matches_pairs_reference_past_depth_64(label, stride):
    """At budgets 2**100 and 2**300 most points run past 64 * (preperiod
    + 1) digits, so the default depth cap, 64 * (preperiod + period), can
    decide where they stop: every CardResult is the raw pairs loop's, and
    the same as at that cap passed explicitly."""
    inst = _count_instance(label)
    past = 0
    for q in (7, 101, 127, 303):
        for p in range(q * inst.proj_min, q * inst.proj_max + 1, stride):
            x = Fraction(p, q)
            steps, cap = _pairs_steps(inst, x, 2**300, None)
            pre, period = counting._expansion_lengths(inst, x)
            assert cap == 64 * (pre + period)
            for budget in (2**100, 2**300):
                result = exact_card(inst, x, budget)
                assert result == _pairs_verdict(steps, budget, cap), (x, budget)
                assert exact_card(inst, x, budget, cap) == result, (x, budget)
                past += result.depth_reached >= 64 * (pre + 1)
    assert past > 500


def _assert_path_counts(inst, cap, brute):
    """``counting._path_counts`` at every reduced p/q of the range with
    q <= 12 against the two counters: ``exact_card`` at budget ``cap``,
    which gives the count where it is Finite and passes the budget, or
    proves the count infinite, where the pass reads cap + 1; and, with
    ``brute``, the oracle's depth-k count, cut at b + 1 for b = min(cap, 3)
    and read at k = V * (b + 3).  From x the graph reaches V = (preperiod +
    period) * (span + 1) vertices at most, so a finite count is reached
    within V digits, and an infinite one passes b within V * (b + 2): a
    walk meets the cycling component that makes it infinite within V
    digits, and each later turn round it, at most V digits, adds a walk."""
    lo, hi = inst.proj_min, inst.proj_max
    b = min(cap, 3)
    for q in range(1, 13):
        layers = counting._path_counts(inst, q, cap)
        for p in range(q * lo, q * hi + 1):
            x = Fraction(p, q)
            if x.denominator != q:
                continue
            t, r = divmod(p, q)
            count = layers[r][t - lo]
            result = exact_card(inst, x, budget=cap)
            if result.verdict == "Finite":
                assert count == result.count, (x, cap)
            elif result.verdict == "Infinite" or result.count > cap:
                assert count == cap + 1, (x, cap)
            if brute:
                depth = sum(counting._expansion_lengths(inst, x)) * (inst.span + 1) * (b + 3)
                settled = min(brute_force_cube_count(inst, x, depth), b + 1)
                assert min(count, b + 1) == settled, (x, cap)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(counting_instances(), st.integers(1, 9))
def test_path_counts_match_both_counters_random(inst, cap):
    _assert_path_counts(inst, cap, brute=inst.span <= 5)


@pytest.mark.parametrize("cap", [1, 3, 6])
@pytest.mark.parametrize("label", ["cantor_diff", "cantor_double_diff", "cantor_sum"])
def test_path_counts_match_both_counters_bundled(label, cap):
    _assert_path_counts(load(label), cap, brute=True)


def _unpack(vec, mask, r, q, lo, bits):
    """The (scaled offset, count) pairs of a packed vector whose chains sit
    at r + q * t, the count at t in the field at t - ``lo``, ascending."""
    field = (1 << bits) - 1
    return tuple(
        (r + q * (lo + j), vec >> bits * j & field)
        for j in range(mask.bit_length())
        if mask >> j & 1
    )


def kernel_states(inst, x, depth):
    """The chain multisets of x at depths 0..``depth``, as (scaled offset,
    count) pairs: ``counting._advance`` on the instance's digit table, as
    ``exact_card`` steps it, with no cycle check and no cache, at a field
    width that holds every count."""
    x = Fraction(x)
    n, q, lo = inst.n, x.denominator, inst.proj_min
    bits = (inst.cube_count**depth).bit_length()
    table = counting.digit_table(inst, bits)
    t, r = divmod(x.numerator, q)
    vec, mask = 1 << bits * (t - lo), 1 << (t - lo)
    states = [_unpack(vec, mask, r, q, lo, bits)]
    for _ in range(depth):
        d, r = divmod(n * r, q)
        vec, mask, _ = counting._advance(table[d][not r], bits, vec, mask)
        states.append(_unpack(vec, mask, r, q, lo, bits))
    return states


@st.composite
def _packed_vectors(draw):
    """Any instance, a scale q of 1-12, a residue r mod q and the counts,
    0-9 or up to 2^70, of chains at r + q * t for t of the range (t =
    proj_max only when r = 0)."""
    inst = draw(instances())
    q = draw(st.integers(1, 12))
    r = draw(st.integers(0, q - 1))
    top = inst.proj_max - (r != 0)
    counts = draw(
        st.dictionaries(
            st.integers(inst.proj_min, top),
            st.integers(0, 9) | st.integers(0, 2**70),
            max_size=8,
        )
    )
    return inst, q, r, counts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_packed_vectors())
def test_advance_state_matches_pairs_reference_random(case):
    """From the same chains, one residue packed at a field width that holds
    every count, ``counting._advance`` gives the raw pairs step's children
    and their cardinality, and so on for three more digits; the children
    stay on the span + 1 fields of [proj_min, proj_max].  From the same
    vector's (field, count) pairs, ``counting._advance_pairs`` gives the
    same children and support mask."""
    inst, q, r, counts = case
    n, lo, hi = inst.n, inst.proj_min, inst.proj_max
    weights = _scaled_weights(inst, q)
    largest = max(sum(counts.values()), 1) * inst.cube_count**4
    bits = largest.bit_length()
    field = (1 << bits) - 1
    table = counting.digit_table(inst, bits)
    vec = sum(m << bits * (t - lo) for t, m in counts.items())
    mask = sum(1 << (t - lo) for t in counts)
    pairs = _unpack(vec, mask, r, q, lo, bits)
    for _ in range(4):
        d, r = divmod(n * r, q)
        entry = table[d][not r]
        child, child_mask, card = counting._advance(entry, bits, vec, mask)
        fields = [(j, vec >> bits * j & field) for j in range(mask.bit_length()) if mask >> j & 1]
        assert counting._advance_pairs(entry, fields) == (child, child_mask)
        expected = tuple(sorted(_step(pairs, n, weights, q * lo, q * hi).items()))
        assert _unpack(child, child_mask, r, q, lo, bits) == expected
        assert card == sum(m for _, m in expected)
        assert child_mask >> inst.span + 1 == 0
        vec, mask, pairs = child, child_mask, expected


def test_advance_keeps_an_emptied_vector_empty(no_cover):
    """On no_cover every chain of 1/7 has left the range after two digits,
    and the empty vector steps to the empty vector, as the raw pairs do."""
    inst, q = no_cover, 7
    states = kernel_states(inst, Fraction(1, q), 3)
    assert states[2] == states[3] == ()
    weights = _scaled_weights(inst, q)
    pairs = states[0]
    for state in states[1:]:
        children = _step(pairs, inst.n, weights, q * inst.proj_min, q * inst.proj_max)
        pairs = tuple(sorted(children.items()))
        assert pairs == state


# Cube counts 4, 8, 9 and 16: budget * cubes is a power of two on the three
# even counts, and one less than a power of two on n5's 9 cubes (budgets 7
# and 455).
@pytest.mark.parametrize("label", ["cantor_diff", "l3", "n5", "l4"])
def test_packed_fields_match_pairs_at_field_width_edges(label):
    """A packed field is (budget * cubes).bit_length() bits wide.  At the
    budgets where budget * cubes is a power of two, or one less, and at the
    budget after each, the fields must not spill into each other: every
    CardResult is the raw pairs loop's, and the one table built for the
    budget has that width."""
    inst = _count_instance(label)
    cubes = inst.cube_count
    edges = {
        budget
        for k in range(1, 17)
        for total in (2**k - 1, 2**k)
        if total % cubes == 0
        for budget in (total // cubes, total // cubes + 1)
    }
    assert edges
    for budget in sorted(edges):
        for x in _grid(inst, 12 if inst.span < 10 else 6, 3):
            assert exact_card(inst, x, budget) == _pairs_exact_card(inst, x, budget), (x, budget)
        assert (budget * cubes).bit_length() in counting._RECORDS[id(inst)].tables
