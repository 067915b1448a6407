"""The two directed graphs the answers read, over integer intervals.

The paper's full graph, on every integer interval with an edge from an
interval of type t to each of the n intervals inside the working interval
[t, t+1], is not built: the two graphs below take their edges from the xi
types, and the tests build the full graph as the reference for them.

* subset graph: vertices are nonempty sets of uniquely covered intervals
  that share u mod n; from a subset, the successor under residue h is the
  set of images n*t(u) + h, and an edge exists exactly when that image
  stays inside the uniquely covered collection.  This successor form is
  equivalent to the two-sided covering rule quantified over full-graph
  edges, because a uniquely covered interval has exactly one candidate
  successor per residue.
* restricted graph: the induced subgraph of the full graph on the uniquely
  covered intervals.  A singleton {u} steps only to singletons
  {n*t(u) + h}, so this is the subset graph on the singletons, built from
  every singleton as a seed; its vertex numbers are the uniquely covered u
  ascending, the index of its 0-1 matrix M, which ``component_matrix``
  forms where it is printed, the only place a dense matrix is built.

``aligned(types, n, base)``, the one place that shifts intervals by a
residue, keeps the images base + h that stay uniquely covered: the edges
of both graphs and the multiplicity search's aligned subsets.

``build_congruent_graph(types, n, seeds)``, the one builder of both
graphs, takes the xi types and the base and builds only the part of the
subset graph that the seed subsets reach: it closes the seeds under
``aligned``, refused with TooLarge past 2**20 vertices, numbers the reached
subsets in ascending member order and decomposes them on those numbers.
The ``analysis`` context passes the xi types it holds, for the restricted
graph and for the multiplicity search's subset graph.  A successor-closed
vertex set is a union of whole strongly connected components, so the
components and the cycling components each one reaches are those of the
whole subset graph restricted to it.

``scc`` is the one place that decomposes a graph, given as a successor
table over vertices 0..V-1, for the ``analysis`` context and for
``spectral.spectral_radius`` alike: a single pass of ``_tarjan``, an
iterative Tarjan search, yields the components and, for each one, the
cycling components (those with a cycle) that it reaches, read off
Tarjan's emission order, itself included when it cycles.  It keeps no
reach set of all components: a reader that asks which vertices a set of
vertices reaches runs ``reachable``, a plain search, where it reads the
answer.  It describes structure only; the blocks, each component's sparse
rows with a certified radius, are formed by the ``analysis`` context that
reads them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import TooLarge

# Most subset-graph vertices ``build_congruent_graph`` explores.
_SUBSET_LIMIT = 2**20


class SccDecomposition(NamedTuple):
    """Components of a graph on vertices 0..V-1, sorted by their smallest
    vertex, each sorted; ``comp_of[v]`` is the index of vertex v's
    component; ``cycles[i]`` holds the cycling components (two or more
    vertices, or a loop) that component i reaches, i included exactly when
    it cycles."""

    components: tuple[tuple[int, ...], ...]
    comp_of: list[int]
    cycles: tuple[frozenset[int], ...]


class CongruentGraph(NamedTuple):
    """The subsets reached from a set of seeds, on vertex numbers 0..V-1
    ascending by members: ``vertices[v]`` is the member tuple of vertex v
    and ``number`` maps each member tuple back to its number, ``succ[v]``
    holds the numbers of v's successors (one per residue h with an edge,
    ascending in h) and ``scc`` the decomposition on numbers."""

    n: int
    vertices: tuple[tuple[int, ...], ...]
    number: dict[tuple[int, ...], int]
    succ: tuple[tuple[int, ...], ...]
    scc: SccDecomposition

    def residue(self, v: int) -> int:
        """The residue mod n shared by the members of vertex v."""
        return self.vertices[v][0] % self.n

    def cycles_reached(self, members: tuple[int, ...]) -> frozenset[int]:
        """The cycling components that the vertex with ``members`` reaches."""
        decomposition = self.scc
        return decomposition.cycles[decomposition.comp_of[self.number[members]]]


def aligned(types: Mapping[int, int], n: int, base: Sequence[int]) -> list[tuple]:
    """(h, base + h), h ascending, for each residue h whose image, every
    member of ``base`` plus h, is uniquely covered (a key of ``types``)."""
    # the residues still passing, narrowed one member at a time
    passing = range(n)
    for b in base:
        passing = [h for h in passing if b + h in types]
        if not passing:
            return []
    return [(h, tuple([b + h for b in base])) for h in passing]


def build_congruent_graph(
    types: Mapping[int, int], n: int, seeds: Iterable[tuple[int, ...]]
) -> CongruentGraph:
    """The part of the base-n subset graph on the xi types ``types`` that
    the subsets ``seeds`` reach, decomposed on vertex numbers.

    Each seed is a nonempty ascending tuple of uniquely covered intervals
    that share u mod n.  The vertices are the closure of the seeds under
    the edge rule, numbered in ascending member order.  Each reached
    subset's successors are ``aligned`` on its base, the ascending distinct
    n*t(u) over its members u.  Raises TooLarge as soon as the closure has
    more than _SUBSET_LIMIT vertices.
    """
    # images[members]: the (h, successor) pairs of a reached subset
    images: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    frontier = list(seeds)
    while frontier:
        members = frontier.pop()
        if members in images:
            continue
        if len(images) == _SUBSET_LIMIT:
            raise TooLarge(f"the subset graph explores more than {_SUBSET_LIMIT} vertices")
        out = images[members] = aligned(types, n, sorted({n * types[u] for u in members}))
        frontier.extend([image for _, image in out])
    vertices = tuple(sorted(images))
    number = {members: v for v, members in enumerate(vertices)}
    succ = tuple([tuple([number[image] for _, image in images[members]]) for members in vertices])
    # freed before the decomposition, the builder's peak in memory
    del images
    return CongruentGraph(n=n, vertices=vertices, number=number, succ=succ, scc=scc(succ))


def component_matrix(adjacency: Mapping | Sequence, comp) -> tuple[tuple[int, ...], ...]:
    """0-1 matrix of the subgraph induced on comp, indexed in comp order,
    as a tuple of rows; ``adjacency[v]`` lists the successors of v.  Each
    row becomes a tuple as soon as it is filled, so a large component's
    matrix is never held twice."""
    pos = {v: i for i, v in enumerate(comp)}
    rows = []
    for v in comp:
        row = [0] * len(comp)
        for w in adjacency[v]:
            if w in pos:
                row[pos[w]] = 1
        rows.append(tuple(row))
    return tuple(rows)


def reachable(succ: Sequence[Sequence[int]], sources: Iterable[int]) -> set[int]:
    """Every vertex that a path of length 0 or more leads to from one of
    ``sources``, in the graph whose successor table is ``succ``."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def scc(succ: Sequence[Sequence[int]]) -> SccDecomposition:
    """Strongly connected components of the graph on vertices 0..V-1 whose
    successor table is ``succ``, with the cycling components each one
    reaches."""
    emitted = _tarjan(succ)
    # only components of two or more vertices need sorting
    for comp in emitted:
        if len(comp) > 1:
            comp.sort()
    ordered = sorted(emitted, key=itemgetter(0))
    comp_of = [0] * len(succ)
    for idx, comp in enumerate(ordered):
        for v in comp:
            comp_of[v] = idx
    # components that reach no cycle share the one empty set
    cycles: list[frozenset[int]] = [frozenset()] * len(ordered)
    # Tarjan emits a component only after every component it reaches
    for comp in emitted:
        idx = comp_of[comp[0]]
        reached: set[int] = set()
        for v in comp:
            for w in succ[v]:
                reached |= cycles[comp_of[w]]
        if len(comp) > 1 or comp[0] in succ[comp[0]]:
            reached.add(idx)
        if reached:
            cycles[idx] = frozenset(reached)
    return SccDecomposition(
        components=tuple(map(tuple, ordered)),
        comp_of=comp_of,
        cycles=tuple(cycles),
    )


def _tarjan(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components by Tarjan's algorithm (Tarjan 1972),
    iterative, with roots taken in ascending order; index, low link and
    on-stack state are lists indexed by vertex.  Returns components in
    reverse topological order of the condensation (Tarjan's emission
    order), each unsorted."""
    size = len(succ)
    index = [-1] * size
    low = [0] * size
    on_stack = [False] * size
    stack: list[int] = []
    counter = 0
    comps: list[list[int]] = []

    for root in range(size):
        if index[root] >= 0:
            continue
        if not succ[root]:
            # a vertex without successors is a component by itself
            index[root] = counter
            counter += 1
            comps.append([root])
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps
