import random

import pytest
from hypothesis import given, settings

from slicekit import (
    build_congruent_graph,
    enumerate_achievable_r,
    scc,
)
from slicekit import graphs
from slicekit.analysis import _LOOP_BLOCKS, Analysis, _reachable_vectors
from slicekit.errors import TooLarge
from slicekit.graphs import component_matrix, reachable
from slicekit.instance import parse_instance
from slicekit.lattice import xi_types
from slicekit.spectral import block_radius

from helpers import block_rows, restricted, scan_full_graph, spelled, subset_successor
from test_properties import instances

GOLDEN_M_CANTOR = (
    (1, 1, 0, 0),
    (0, 0, 1, 1),
    (1, 1, 0, 0),
    (0, 0, 1, 1),
)


def test_full_graph_edges(cantor_diff):
    adjacency = scan_full_graph(cantor_diff)
    assert adjacency[-3] == (-3, -2, -1)
    assert adjacency[-1] == (-3, -2, -1)  # both covering cubes give type -1
    assert adjacency[-2] == (0, 1, 2)


def test_full_graph_no_type_no_edges(no_cover):
    assert scan_full_graph(no_cover)[2] == ()


def test_xi_graph_matrix(cantor_diff, cantor_sum):
    assert restricted(cantor_diff)[2] == GOLDEN_M_CANTOR
    assert restricted(cantor_sum)[2] == GOLDEN_M_CANTOR


def test_xi_graph_restriction(cantor_diff):
    adjacency = scan_full_graph(cantor_diff)
    _, us, matrix = restricted(cantor_diff)
    for u, row in zip(us, matrix):
        expected = tuple(v for v in adjacency[u] if v in us)
        got = tuple(v for v, bit in zip(us, row) if bit)
        assert got == expected


def _every_support(inst):
    """Every nonempty set of working intervals, ascending."""
    positions = range(inst.proj_min, inst.proj_max)
    return [
        tuple(p for i, p in enumerate(positions) if mask >> i & 1)
        for mask in range(1, 2 ** len(positions))
    ]


def _aligned_seeds(inst, supports):
    """The aligned subsets {n*p + h : p in P} of every P in ``supports``
    that lie inside the uniquely covered collection."""
    types = xi_types(inst)
    n = inst.n
    aligned = (tuple(n * p + h for p in chosen) for chosen in supports for h in range(n))
    return [members for members in aligned if all(u in types for u in members)]


def _aligned_closure(inst, supports):
    """The subset graph's vertices by their first definition: the aligned
    subsets of ``supports``, closed under ``subset_successor``."""
    types = xi_types(inst)
    n = inst.n
    frontier = _aligned_seeds(inst, supports)
    closed = set()
    while frontier:
        members = frontier.pop()
        if members in closed:
            continue
        closed.add(members)
        for h in range(n):
            image = subset_successor(types, n, members, h)
            if image is not None:
                frontier.append(image)
    return closed


def _whole_graph(inst):
    """The subset graph explored from the aligned subsets of every support,
    which are every subset of every residue class."""
    return build_congruent_graph(
        xi_types(inst), inst.n, _aligned_seeds(inst, _every_support(inst))
    )


def test_congruent_vertices_full(cantor_diff):
    g = _whole_graph(cantor_diff)
    assert g.vertices == ((-3,), (-2,), (-2, 1), (1,), (2,))
    assert g.number[(-2, 1)] == 2
    assert [g.residue(v) for v in range(5)] == [0, 1, 1, 1, 2]


def test_search_explores_aligned_closure(cantor_diff, cantor_double_diff, cantor_sum):
    """The search's subset graph holds exactly the closure of the aligned
    subsets of its vectors' supports."""
    for inst in (cantor_diff, cantor_double_diff, cantor_sum):
        for max_r in (1, 3, 6):
            search = enumerate_achievable_r(inst, max_r)
            records = spelled(_reachable_vectors(inst, max_r))
            supports = {support for _, _, _, _, support in records}
            assert set(search.graph.vertices) == _aligned_closure(inst, supports)


def _assert_explores_aligned_closure(inst):
    """The builder explores the aligned closure of every support, and that
    of the single working intervals."""
    assert set(_whole_graph(inst).vertices) == _aligned_closure(inst, _every_support(inst))
    singles = [(p,) for p in range(inst.proj_min, inst.proj_max)]
    explored = build_congruent_graph(xi_types(inst), inst.n, _aligned_seeds(inst, singles))
    assert set(explored.vertices) == _aligned_closure(inst, singles)


def test_congruent_vertices_equal_aligned_closure(cantor_diff, base6_mixed, cantor_double_diff):
    for inst in (cantor_diff, base6_mixed, cantor_double_diff):
        _assert_explores_aligned_closure(inst)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances())
def test_congruent_vertices_equal_aligned_closure_random(inst):
    if inst.span > 10:
        return
    _assert_explores_aligned_closure(inst)


def test_congruent_graph_edges(cantor_diff):
    g = _whole_graph(cantor_diff)
    adjacency = scan_full_graph(cantor_diff)
    types = xi_types(cantor_diff)
    number = g.number
    # singleton-to-singleton edges are the full graph's edges among the
    # uniquely covered intervals: the restricted graph
    for u in types:
        targets = {g.vertices[w] for w in g.succ[number[(u,)]]}
        assert targets == {(v,) for v in adjacency[u] if v in types}
    # the two-element class maps onto itself under residue 1 only
    pair = number[(-2, 1)]
    assert g.succ[pair] == (pair,)
    assert g.residue(pair) == 1
    assert g.cycles_reached((-2, 1)) == frozenset({g.scc.comp_of[pair]})


def test_congruent_graph_sccs(cantor_diff):
    g = _whole_graph(cantor_diff)
    comps = {frozenset(g.vertices[v] for v in c) for c in g.scc.components}
    assert frozenset({(-3,), (-2,), (1,), (2,)}) in comps
    assert frozenset({(-2, 1)}) in comps
    blocks = Analysis(cantor_diff).blocks(g.succ, g.scc.components)
    radii = {
        tuple(g.vertices[v] for v in c): rr.estimate for c, (rr, _) in zip(g.scc.components, blocks)
    }
    assert radii[((-2, 1),)] == 1.0
    assert radii[((-3,), (-2,), (1,), (2,))] == 2.0


def test_explored_vertex_cap(monkeypatch):
    """_SUBSET_LIMIT caps the vertices explored, not the subsets of the
    residue classes: span 29 (classes of 20, 20 and 18 members, 2359293
    subsets) explores 1309 and passes, and refuses below that cap."""
    span29 = parse_instance(
        '{"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-14, 15]}'
    )
    explored = len(enumerate_achievable_r(span29, 6).graph.vertices)
    assert explored == 1309
    monkeypatch.setattr(graphs, "_SUBSET_LIMIT", explored)
    assert len(enumerate_achievable_r(span29, 6).graph.vertices) == explored
    monkeypatch.setattr(graphs, "_SUBSET_LIMIT", explored - 1)
    with pytest.raises(TooLarge):
        enumerate_achievable_r(span29, 6)


def test_scc_examples(cantor_diff, base7_double):
    d1 = scc(restricted(cantor_diff)[0].succ)
    assert len(d1.components) == 1
    d3 = scc(restricted(base7_double)[0].succ)
    assert len(d3.components) > 1
    sizes = sorted(len(c) for c in d3.components)
    assert sizes == [1, 1, 5]


def test_scc_blocks_restricted_graph(cantor_diff, base7_double, base6_mixed, cantor_sum):
    """The block the context forms for each component of the restricted
    graph is the sparse rows of its 0-1 adjacency matrix in component
    order, the shared [[loop bit]] block for a single vertex, and its
    radius certifies it."""
    for inst in (cantor_diff, base7_double, base6_mixed, cantor_sum):
        context = Analysis(inst)
        succ = context.xi.succ
        assert context.xi.scc == scc(succ)
        matrices = [component_matrix(succ, comp) for comp in scc(succ).components]
        assert [rows for _, rows in context.xi_blocks] == list(map(block_rows, matrices))
        for block, matrix in zip(context.xi_blocks, matrices):
            assert len(matrix) > 1 or block is _LOOP_BLOCKS[matrix[0][0]]
        assert [rr for rr, _ in context.xi_blocks] == [
            block_radius(block_rows(m)) for m in matrices
        ]


def test_scc_edgeless():
    adj = {0: (), 1: ()}
    d = scc(adj)
    assert len(d.components) == 2
    assert d.cycles == (frozenset(), frozenset())
    assert [reachable(adj, [v]) for v in adj] == [{0}, {1}]


def _order(adj, d):
    """The components that each component of ``d`` reaches, by a
    ``reachable`` search from its first vertex."""
    return [{d.comp_of[v] for v in reachable(adj, comp[:1])} for comp in d.components]


def test_scc_order_is_partial_order():
    rng = random.Random(19)
    for _ in range(20):
        size = rng.randint(1, 8)
        adj = {
            v: tuple(w for w in range(size) if rng.random() < 0.3)
            for v in range(size)
        }
        d = scc(adj)
        order = _order(adj, d)
        k = len(d.components)
        for i in range(k):
            assert i in order[i]
            assert d.cycles[i] <= order[i]
            for j in range(k):
                if i != j and j in order[i]:
                    assert i not in order[j]
                for m in range(k):
                    if j in order[i] and m in order[j]:
                        assert m in order[i]


def _reached_from(adj, v):
    """Every vertex a path of length 0 or more leads to from v."""
    seen = {v}
    stack = [v]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_scc_reach_matches_vertex_dfs():
    """Components, ``reachable`` and the cycling components each component
    reaches agree with a depth-first search over the vertices, on random
    digraphs with cycles and self-loops."""
    rng = random.Random(23)
    for _ in range(200):
        size = rng.randint(1, 12)
        density = rng.choice([0.05, 0.15, 0.3, 0.6])
        adj = {
            v: tuple(w for w in range(size) if rng.random() < density)
            for v in range(size)
        }
        d = scc(adj)
        reached = {v: _reached_from(adj, v) for v in adj}
        on_cycle = {v for v in adj if any(v in reached[w] for w in adj[v])}
        for u in adj:
            assert reachable(adj, [u]) == reached[u]
            assert d.cycles[d.comp_of[u]] == {d.comp_of[v] for v in reached[u] & on_cycle}
            for v in adj:
                same = v in reached[u] and u in reached[v]
                assert (d.comp_of[u] == d.comp_of[v]) == same
        sources = rng.sample(range(size), rng.randint(0, size))
        assert reachable(adj, sources) == set().union(*(reached[v] for v in sources))


def test_xi_component_radii_inside_subset_radii(cantor_diff, base6_mixed):
    # singleton components replicate the restricted graph's radii
    for inst in (cantor_diff, base6_mixed):
        xi_radii = {rr.estimate for rr, _ in Analysis(inst).xi_blocks}
        g = _whole_graph(inst)
        sub_radii = {rr.estimate for rr, _ in Analysis(inst).blocks(g.succ, g.scc.components)}
        assert xi_radii <= sub_radii


def test_subset_edges_match_two_sided_rule(cantor_diff, base6_mixed, cantor_double_diff):
    """The successor-image construction agrees with the literal rule: an
    edge goes from A to B iff every member of A reaches some member of B in
    the full graph and every member of B is reached from some member of A."""
    for inst in (cantor_diff, base6_mixed, cantor_double_diff):
        full = scan_full_graph(inst)
        g = _whole_graph(inst)
        vertices = g.vertices
        edges = {
            (vertices[a], vertices[t]) for a, outs in enumerate(g.succ) for t in outs
        }
        for a in vertices:
            for b in vertices:
                literal = all(
                    any(v in full[u] for v in b) for u in a
                ) and all(any(v in full[u] for u in a) for v in b)
                assert ((a, b) in edges) == literal, (inst.n, a, b)
