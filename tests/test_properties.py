"""Cross-module invariants on randomly generated instances."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    build_congruent_graph,
    covering_condition,
    exact_card,
    brute_force_cube_count,
    strong_separation,
    transition_matrices,
)
from slicekit.analysis import Analysis
from slicekit.instance import ProblemInstance, parse_instance
from slicekit.lattice import u_range, xi_types

from conftest import FIXTURES, counting_instances, load
from helpers import scan_full_graph, type_assignment
from test_golden import SCALED


@st.composite
def instances(draw):
    n = draw(st.integers(2, 6))
    l = draw(st.integers(1, 2))
    sets = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
        for _ in range(l)
    )
    coeffs = tuple(
        draw(st.integers(-3, 3).filter(lambda m: m != 0)) for _ in range(l)
    )
    return ProblemInstance(n=n, digit_sets=sets, coefficients=coeffs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances())
def test_matrix_entries_match_type_assignments(inst):
    # positive entry at (u, v) iff the interval n*u+j is covered at position v
    for mat in transition_matrices(inst):
        for u in range(inst.proj_min, inst.proj_max):
            ta = type_assignment(inst, inst.n * u + mat.digit)
            types = [t for t, _ in ta.entries]
            for v in range(inst.proj_min, inst.proj_max):
                entry = mat.entry(u, v)
                assert (entry > 0) == (v in types)
                assert entry == types.count(v)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances())
def test_unique_interval_neighbours_fill_working_interval(inst):
    # a uniquely covered interval points at exactly the n intervals of its
    # working interval
    adjacency = scan_full_graph(inst)
    for u, t in xi_types(inst).items():
        assert adjacency[u] == tuple(range(inst.n * t, inst.n * t + inst.n))


def _assert_xi_sccs_survive(inst):
    """A subset never grows under successors, so in the subset graph
    explored from every singleton and every whole residue class the
    components of singletons are the restricted graph's components, with
    the same radii, each graph's blocks formed by a context of its own."""
    context = Analysis(inst)
    xi, types = context.xi, context.types
    classes = {}
    for u in types:
        classes.setdefault(u % inst.n, []).append(u)
    graph = build_congruent_graph(
        types, inst.n, [(u,) for u in types] + [tuple(cls) for cls in classes.values()]
    )
    blocks = Analysis(inst).blocks(graph.succ, graph.scc.components)
    singletons = {
        frozenset(graph.vertices[v] for v in comp): rr
        for comp, (rr, _) in zip(graph.scc.components, blocks)
        if len(graph.vertices[comp[0]]) == 1
    }
    assert singletons == {
        frozenset(xi.vertices[v] for v in comp): rr
        for comp, (rr, _) in zip(xi.scc.components, context.xi_blocks)
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instances())
def test_xi_sccs_survive_in_subset_graph(inst):
    _assert_xi_sccs_survive(inst)


def test_xi_sccs_survive_in_subset_graph_named():
    """The same check on every bundled instance, on the benchmark's scaled
    family (spans up to 17) and on spans 21, 25, 29 and 41."""
    for name in sorted(p.stem for p in FIXTURES.glob("*.json")):
        _assert_xi_sccs_survive(load(name))
    for document, _ in SCALED.values():
        _assert_xi_sccs_survive(parse_instance(document))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instances(), st.integers(0, 10**6))
def test_monotone_counts_iff_useful(inst, salt):
    """Under covering, brute-force counts never decrease with depth."""
    if not covering_condition(inst):
        return
    rng = random.Random(salt)
    q = rng.choice([5, 7, 11, 13])
    while inst.n % q == 0:
        q += 2
    k = rng.randrange(1, inst.span * q)
    x = Fraction(inst.proj_min) + Fraction(k, q)
    counts = [brute_force_cube_count(inst, x, depth) for depth in range(6)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


# A random point of a covering instance rarely has finitely many
# representations (most are Infinite or exceed the budget): 11 of these
# 300 examples are Finite and reach the comparison.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(counting_instances(), st.integers(0, 10**6))
def test_exact_card_dominates_cube_counts(inst, salt):
    """Finite representation counts bound the surviving-cube counts."""
    if not covering_condition(inst) or not all(strong_separation(inst)):
        return
    rng = random.Random(salt)
    q = rng.choice([5, 7, 11])
    while inst.n % q == 0:
        q += 2
    x = Fraction(inst.proj_min) + Fraction(rng.randrange(1, inst.span * q), q)
    res = exact_card(inst, x, budget=512, max_depth=96)
    if res.verdict != "Finite":
        return
    for k in range(6):
        assert brute_force_cube_count(inst, x, k) <= res.count


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instances())
def test_every_interval_covered_iff_covering(inst):
    covered = all(
        sum(
            c
            for t in range(inst.proj_min, inst.proj_max)
            for c in [inst.cube_weights.get(u - t, 0)]
        )
        > 0
        for u in u_range(inst)
    )
    assert covered == covering_condition(inst)
