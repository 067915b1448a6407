"""The sparse multiplicity search and the mask-built subset graph against
the dense and tuple-based constructions they replaced, written out here.

``_dense_reachable_vectors`` forms every product e_i T_{j1} ... T_{jk} as a
full span x span vector-matrix product.  ``_tuple_subset_graph`` enumerates
each residue class's subsets as sorted member tuples, takes edges from
``subset_successor`` and certifies every component, single vertices
included, with ``block_radius``.  The new code must reproduce both exactly:
the same vectors in the same discovery order, and the same vertices, edges,
components, reach sets and radii.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import build_congruent_graph
from slicekit._digraph import strongly_connected_components
from slicekit.analysis import _VECTOR_CAP, _reachable_vectors
from slicekit.errors import TooLarge
from slicekit.graphs import (
    CongruentSubset,
    component_matrix,
    subset_successor,
)
from slicekit.lattice import xi_types
from slicekit.spectral import block_radius, transition_matrices

from conftest import FIXTURES, counting_instances, load
from test_properties import instances

BUNDLED = sorted(p.stem for p in FIXTURES.glob("*.json"))


def _dense_reachable_vectors(inst, max_r):
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
                if child not in nxt or cand < nxt[child]:
                    nxt[child] = cand
        for vec, disc in nxt.items():
            found[vec] = disc
        if len(found) > _VECTOR_CAP:
            raise TooLarge(f"more than {_VECTOR_CAP} reachable vectors")
        level = nxt
    return found


def _assert_same_vectors(inst, max_r):
    # as ordered item lists: discovery order is part of the contract
    assert list(_reachable_vectors(inst, max_r).items()) == list(
        _dense_reachable_vectors(inst, max_r).items()
    )


def test_sparse_vectors_match_dense_bundled():
    for name in BUNDLED:
        for max_r in (1, 3, 6, 9):
            _assert_same_vectors(load(name), max_r)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(counting_instances(), st.integers(1, 8))
def test_sparse_vectors_match_dense_random(inst, max_r):
    _assert_same_vectors(inst, max_r)


def _tuple_subset_graph(inst):
    """(vertices, adjacency, succ, components, reach, radii, comp_of,
    cycling) of the subset graph, built on sorted member tuples."""
    types = xi_types(inst)
    n = inst.n
    classes = {}
    for u in sorted(types):
        classes.setdefault(u % n, []).append(u)
    vertices = []
    for cls in classes.values():
        for mask in range(1, 2 ** len(cls)):
            members = tuple(cls[i] for i in range(len(cls)) if mask >> i & 1)
            occupied = tuple(sorted({u // n for u in members}))
            vertices.append(CongruentSubset(members, members[0] % n, occupied))
    vertices.sort(key=lambda s: s.members)
    keys = {v.members for v in vertices}
    adjacency = {}
    for v in vertices:
        out = []
        for h in range(n):
            img = subset_successor(types, n, v.members, h)
            if img is not None and img in keys:
                out.append((h, img))
        adjacency[v.members] = tuple(out)
    succ = {k: tuple(t for _, t in outs) for k, outs in adjacency.items()}
    comps = sorted(
        (tuple(sorted(c)) for c in strongly_connected_components(sorted(succ), succ)),
        key=lambda c: c[0],
    )
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
    radii = tuple(block_radius(component_matrix(succ, c), range(len(c))) for c in comps)
    cycling = frozenset(
        idx for idx, c in enumerate(comps) if len(c) > 1 or c[0] in succ[c[0]]
    )
    comps = tuple(comps)
    return tuple(vertices), adjacency, succ, comps, tuple(reach), radii, comp_of, cycling


def _assert_same_subset_graph(inst):
    graph = build_congruent_graph(inst)
    reference = _tuple_subset_graph(inst)
    vertices, adjacency, succ, comps, reach, radii, comp_of, cycling = reference
    assert graph.vertices == vertices
    assert graph.adjacency == adjacency
    assert graph.succ == succ
    assert graph.scc.components == comps
    assert graph.scc.reach == reach
    assert graph.scc.radii == radii
    assert graph.scc.comp_of == comp_of
    assert graph.scc.cycling == cycling


def test_mask_subset_graph_matches_tuples_bundled():
    for name in BUNDLED:
        _assert_same_subset_graph(load(name))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(instances())
def test_mask_subset_graph_matches_tuples_random(inst):
    if len(xi_types(inst)) > 12:
        return
    _assert_same_subset_graph(inst)

