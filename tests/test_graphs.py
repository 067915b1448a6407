import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from slicekit import (
    build_congruent_graph,
    build_full_graph,
    build_xi_graph,
    congruent_vertices,
    psi_step,
    scc,
)
from slicekit.errors import NotInterior, NotInXi, TooLarge
from slicekit.graphs import subset_successor
from slicekit.instance import ProblemInstance
from slicekit.lattice import xi_types

from test_properties import instances

GOLDEN_M_CANTOR = (
    (1, 1, 0, 0),
    (0, 0, 1, 1),
    (1, 1, 0, 0),
    (0, 0, 1, 1),
)


def test_full_graph_edges(cantor_diff):
    g = build_full_graph(cantor_diff)
    assert g.adjacency[-3] == (-3, -2, -1)
    assert g.adjacency[-1] == (-3, -2, -1)  # both covering cubes give type -1
    assert g.adjacency[-2] == (0, 1, 2)


def test_full_graph_no_type_no_edges(no_cover):
    g = build_full_graph(no_cover)
    assert g.adjacency[2] == ()


def test_xi_graph_matrix(cantor_diff, cantor_sum):
    assert build_xi_graph(cantor_diff).matrix == GOLDEN_M_CANTOR
    assert build_xi_graph(cantor_sum).matrix == GOLDEN_M_CANTOR


def test_xi_graph_restriction(cantor_diff):
    g = build_full_graph(cantor_diff)
    xg = build_xi_graph(cantor_diff)
    for u, row in zip(xg.us, xg.matrix):
        expected = tuple(v for v in g.adjacency[u] if v in xg.us)
        got = tuple(v for v, bit in zip(xg.us, row) if bit)
        assert got == expected


def test_congruent_vertices_full(cantor_diff):
    subs = congruent_vertices(cantor_diff)
    members = sorted(s.members for s in subs)
    assert members == [(-3,), (-2,), (-2, 1), (1,), (2,)]
    pair = next(s for s in subs if s.members == (-2, 1))
    assert pair.residue == 1
    assert pair.occupied == (-1, 0)
    assert pair.size == len(pair.occupied)


def _aligned_closure(inst):
    """The subset graph's vertices by their first definition: the aligned
    subsets {n*p + h : p in P} of every nonempty set P of working intervals
    that lie inside the uniquely covered collection, closed under
    ``subset_successor``."""
    types = xi_types(inst)
    n = inst.n
    positions = range(inst.proj_min, inst.proj_max)
    frontier = []
    for mask in range(1, 2 ** len(positions)):
        chosen = [p for i, p in enumerate(positions) if mask >> i & 1]
        for h in range(n):
            members = tuple(n * p + h for p in chosen)
            if all(u in types for u in members):
                frontier.append(members)
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


def test_congruent_vertices_equal_aligned_closure(cantor_diff, base6_mixed, cantor_double_diff):
    for inst in (cantor_diff, base6_mixed, cantor_double_diff):
        assert {s.members for s in congruent_vertices(inst)} == _aligned_closure(inst)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances())
def test_congruent_vertices_equal_aligned_closure_random(inst):
    if inst.span > 10:
        return
    assert {s.members for s in congruent_vertices(inst)} == _aligned_closure(inst)


def test_congruent_graph_edges(cantor_diff):
    g = build_congruent_graph(cantor_diff)
    xg = build_xi_graph(cantor_diff)
    xi_adj = xg.adjacency()
    # singleton-to-singleton edges coincide with the restricted graph
    for u in xg.us:
        targets = {t for _, t in g.adjacency[(u,)]}
        assert targets == {(v,) for v in xi_adj[u]}
    # the two-element class maps onto itself under residue 1 only
    assert g.adjacency[(-2, 1)] == ((1, (-2, 1)),)


def test_congruent_graph_sccs(cantor_diff):
    g = build_congruent_graph(cantor_diff)
    comps = {frozenset(c) for c in g.scc.components}
    assert frozenset({(-3,), (-2,), (1,), (2,)}) in comps
    assert frozenset({(-2, 1)}) in comps
    radii = {
        tuple(sorted(c)): rr.estimate
        for c, rr in zip(g.scc.components, g.scc.radii)
    }
    assert radii[((-2, 1),)] == 1.0
    assert radii[((-3,), (-2,), (1,), (2,))] == 2.0


def test_congruent_full_mode_cap():
    # 41 singleton factors give a uniquely covered run of 41 intervals, in
    # residue classes of 21 and 20 members: over 2**20 subsets in all
    inst = ProblemInstance(
        n=2, digit_sets=((0,),) * 41, coefficients=(1,) * 41
    )
    with pytest.raises(TooLarge):
        congruent_vertices(inst)
    # span 21, three classes of 14 members each: within the cap
    wide = ProblemInstance(n=3, digit_sets=((0, 2),) * 2, coefficients=(-10, 11))
    assert len(congruent_vertices(wide)) == 3 * (2**14 - 1)


def test_scc_examples(cantor_diff, base7_double):
    d1 = scc(build_xi_graph(cantor_diff).adjacency())
    assert len(d1.components) == 1
    d3 = scc(build_xi_graph(base7_double).adjacency())
    assert len(d3.components) > 1
    sizes = sorted(len(c) for c in d3.components)
    assert sizes == [1, 1, 5]


def test_scc_edgeless():
    d = scc({0: (), 1: ()})
    assert len(d.components) == 2
    assert all(rr.estimate == 0.0 for rr in d.radii)
    assert d.reach == (frozenset({0}), frozenset({1}))


def test_scc_order_is_partial_order():
    rng = random.Random(19)
    for _ in range(20):
        size = rng.randint(1, 8)
        adj = {
            v: tuple(w for w in range(size) if rng.random() < 0.3)
            for v in range(size)
        }
        d = scc(adj)
        k = len(d.components)
        for i in range(k):
            assert d.precedes(i, i)
            for j in range(k):
                if i != j and d.precedes(i, j):
                    assert not d.precedes(j, i)
                for m in range(k):
                    if d.precedes(i, j) and d.precedes(j, m):
                        assert d.precedes(i, m)


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
    """Components, reachability and cycling agree with a depth-first search
    over the vertices, on random digraphs with cycles and self-loops."""
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
        for u in adj:
            for v in adj:
                same = v in reached[u] and u in reached[v]
                assert (d.comp_of[u] == d.comp_of[v]) == same
                assert d.precedes(d.comp_of[u], d.comp_of[v]) == (v in reached[u])
        for i, comp in enumerate(d.components):
            on_cycle = any(comp[0] in reached[w] for w in adj[comp[0]])
            assert (i in d.cycling) == on_cycle


def test_psi_step_values(cantor_diff):
    assert psi_step(cantor_diff, Fraction(-5, 6), -3) == Fraction(-1, 2)
    with pytest.raises(NotInterior):
        psi_step(cantor_diff, Fraction(-1), -3)
    with pytest.raises(NotInXi):
        psi_step(cantor_diff, Fraction(-1, 4), -1)


def test_psi_step_affine_identity(cantor_diff):
    # psi(x) = n*x - u + t exactly
    from slicekit.lattice import xi_types

    types = xi_types(cantor_diff)
    for u, t in types.items():
        x = Fraction(u, 3) + Fraction(1, 7)
        assert psi_step(cantor_diff, x, u) == 3 * x - u + t


def test_psi_congruence_preservation(cantor_diff):
    """Integer-translated points in congruent intervals map into congruent
    intervals again."""
    from slicekit.lattice import xi_types

    types = xi_types(cantor_diff)
    n = cantor_diff.n
    rng = random.Random(4)
    classes = {}
    for u in types:
        classes.setdefault(u % n, []).append(u)
    for _ in range(60):
        cls = rng.choice([c for c in classes.values() if len(c) >= 2])
        u1, u2 = rng.sample(cls, 2)
        offset = rng.randrange(1, 6)
        frac = Fraction(offset, 7 * n)
        x1 = Fraction(u1, n) + frac
        x2 = Fraction(u2, n) + frac
        assert (x1 - x2).denominator == 1
        y1 = psi_step(cantor_diff, x1, u1)
        y2 = psi_step(cantor_diff, x2, u2)
        v1 = (y1 * n).numerator // (y1 * n).denominator
        v2 = (y2 * n).numerator // (y2 * n).denominator
        assert (v1 - v2) % n == 0


def test_xi_component_radii_inside_subset_radii(cantor_diff, base6_mixed):
    # singleton components replicate the restricted graph's radii
    for inst in (cantor_diff, base6_mixed):
        xi_radii = {rr.estimate for rr in scc(build_xi_graph(inst).adjacency()).radii}
        sub_radii = {
            rr.estimate for rr in build_congruent_graph(inst).scc.radii
        }
        assert xi_radii <= sub_radii


def test_subset_edges_match_two_sided_rule(cantor_diff, base6_mixed, cantor_double_diff):
    """The successor-image construction agrees with the literal rule: an
    edge goes from A to B iff every member of A reaches some member of B in
    the full graph and every member of B is reached from some member of A."""
    for inst in (cantor_diff, base6_mixed, cantor_double_diff):
        full = build_full_graph(inst).adjacency
        g = build_congruent_graph(inst)
        vertices = [v.members for v in g.vertices]
        edges = {
            (a, t) for a, outs in g.adjacency.items() for _, t in outs
        }
        for a in vertices:
            for b in vertices:
                literal = all(
                    any(v in full[u] for v in b) for u in a
                ) and all(any(v in full[u] for u in a) for v in b)
                assert ((a, b) in edges) == literal, (inst.n, a, b)
