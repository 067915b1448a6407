"""The two directed graphs the answers read, over integer intervals.

The paper's full graph, on every integer interval with an edge from an
interval of type t to each of the n intervals inside the working interval
[t, t+1], is not built: the two graphs below take their edges from the xi
types, and the tests build the full graph as the reference for them.

* restricted graph: the induced subgraph of the full graph on the uniquely
  covered intervals, a record of successor lists (ascending-u indexing);
  its 0-1 matrix is formed on each read by ``component_matrix``, the one
  0-1 matrix builder.
* subset graph: vertices are nonempty sets of uniquely covered intervals
  that share u mod n; from a subset, the successor under residue h is the
  set of images n*t(u) + h, and an edge exists exactly when that image
  stays inside the uniquely covered collection.  This successor form is
  equivalent to the two-sided covering rule quantified over full-graph
  edges, because a uniquely covered interval has exactly one candidate
  successor per residue.

``aligned(types, n, base)``, the one place that shifts intervals by a
residue, keeps the images base + h that stay uniquely covered: the edges
of both graphs and the multiplicity search's aligned subsets.

Only the part of the subset graph that given seed subsets reach is ever
built: ``build_congruent_graph(types, n, seeds)``, the one builder, takes
the xi types and the base, closes the seeds under ``aligned``, refused
with TooLarge past 2**20 vertices, numbers the reached subsets in
ascending member order and decomposes them on those numbers.  The
multiplicity search passes the xi types its ``Analysis`` context already
holds.  A successor-closed vertex set is a union of whole strongly
connected components, so the components, reach sets and cycling flags
it yields are those of the whole subset graph restricted to it.

``scc`` is the one place that decomposes a graph, given as a successor
table over vertices 0..V-1: a single Tarjan pass yields the components,
the set of components each one reaches (read off Tarjan's emission order)
and the cycling components.  It describes structure only; the blocks,
each component's 0-1 matrix with a certified radius, are formed by the
``analysis`` context that reads them.  The restricted graph is
decomposed on positions in ``xi.us``, its matrix index.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._digraph import strongly_connected_components
from .errors import TooLarge
from .instance import ProblemInstance
from .lattice import xi_types

# Most subset-graph vertices ``build_congruent_graph`` explores.
_SUBSET_LIMIT = 2**20


class XiGraph(NamedTuple):
    """Induced subgraph on uniquely covered intervals.  ``us`` is the
    index, the uniquely covered u ascending; ``types`` maps each of them to
    its type; ``succ[i]`` lists the positions in ``us`` that position i has
    an edge to, ascending."""

    us: tuple[int, ...]
    types: dict[int, int]
    succ: tuple[tuple[int, ...], ...]

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The 0-1 matrix on ``us``, formed on each read."""
        return component_matrix(self.succ, range(len(self.succ)))


class SccDecomposition(NamedTuple):
    """Components of a graph on vertices 0..V-1, sorted by their smallest
    vertex, each sorted; ``reach[i]`` holds every component that component
    i reaches, i included; ``comp_of[v]`` is the index of vertex v's
    component; ``cycling`` holds the components with a cycle (two or more
    vertices, or a loop)."""

    components: tuple[tuple[int, ...], ...]
    reach: tuple[frozenset[int], ...]
    comp_of: list[int]
    cycling: frozenset[int]

    def precedes(self, i: int, j: int) -> bool:
        return j in self.reach[i]


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
        i = decomposition.comp_of[self.number[members]]
        return decomposition.reach[i] & decomposition.cycling


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


def build_xi_graph(inst: ProblemInstance) -> XiGraph:
    types = xi_types(inst)
    us = sorted(types)
    n = inst.n
    position = {u: i for i, u in enumerate(us)}
    succ = tuple(tuple([position[v] for _, (v,) in aligned(types, n, (n * types[u],))]) for u in us)
    return XiGraph(us=tuple(us), types=types, succ=succ)


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
    vertices = sorted(images)
    number = {members: v for v, members in enumerate(vertices)}
    succ = [tuple([number[image] for _, image in images[members]]) for members in vertices]
    return CongruentGraph(
        n=n,
        vertices=tuple(vertices),
        number=number,
        succ=tuple(succ),
        scc=scc(succ),
    )


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


def scc(succ: Sequence[Sequence[int]]) -> SccDecomposition:
    """Strongly connected components of the graph on vertices 0..V-1 whose
    successor table is ``succ``, with the components each one reaches and
    the components that hold a cycle."""
    emitted = strongly_connected_components(succ)
    # only components of two or more vertices need sorting
    for comp in emitted:
        if len(comp) > 1:
            comp.sort()
    ordered = sorted(emitted, key=itemgetter(0))
    comp_of = [0] * len(succ)
    for idx, comp in enumerate(ordered):
        for v in comp:
            comp_of[v] = idx
    reach: list[frozenset[int]] = [frozenset()] * len(ordered)
    cycling = []
    # Tarjan emits a component only after every component it reaches
    for comp in emitted:
        idx = comp_of[comp[0]]
        reached = {idx}
        for v in comp:
            for w in succ[v]:
                reached |= reach[comp_of[w]]
        reach[idx] = frozenset(reached)
        if len(comp) > 1 or comp[0] in succ[comp[0]]:
            cycling.append(idx)
    return SccDecomposition(
        components=tuple(map(tuple, ordered)),
        reach=tuple(reach),
        comp_of=comp_of,
        cycling=frozenset(cycling),
    )

