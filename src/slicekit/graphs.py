"""The three directed graphs over integer intervals.

* full graph: every integer interval; an edge goes from an interval of type t
  to each of the n intervals inside the working interval [t, t+1].
* restricted graph: the induced subgraph on the uniquely covered intervals,
  with its 0-1 transition matrix (ascending-u indexing).
* subset graph: vertices are every nonempty subset of every residue class
  of the uniquely covered intervals (all members share u mod n), refused
  with TooLarge past 2**20 subsets in all; from a subset, the successor
  under residue h is the set of images n*t(u) + h, and an edge exists
  exactly when that image stays inside the uniquely covered collection.
  This successor form is equivalent to the two-sided covering rule
  quantified over full-graph edges, because a uniquely covered interval has
  exactly one candidate successor per residue.

The subset graph is built on int masks: a subset is a mask over its residue
class (bit i for the class's i-th smallest member), each member's image under
residue h is one bit of the class of residue h or, when it leaves the
uniquely covered intervals, a bit of that class's fail mask, and a subset's
image is the union of its members' bits.  The graph is decomposed with its
vertices numbered in member order; member tuples appear only in the
returned ``CongruentGraph``, whose successor map and decomposition the
report and the multiplicity search read.

``scc`` is the one place that decomposes a graph, given as a successor map:
a single Tarjan pass yields the components, the set of components each one
reaches (read off Tarjan's emission order) and a certified radius per
component.  A single vertex's radius is its loop bit, 0 or 1, so only
components of two or more vertices go through ``block_radius``; in subset
graphs nearly all components are single vertices.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping

from ._digraph import strongly_connected_components
from .errors import NotInterior, NotInXi, TooLarge
from .instance import ProblemInstance
from .lattice import IntegerInterval, make_interval, u_range, xi_types
from .spectral import RadiusResult, block_radius

# Largest sum over residue classes of 2**|class| the subset graph enumerates.
_SUBSET_LIMIT = 2**20

# The radius of a single vertex without and with a loop.
_LOOP_RADII = (
    RadiusResult(Fraction(0), Fraction(0), 0.0),
    RadiusResult(Fraction(1), Fraction(1), 1.0),
)


@dataclass(frozen=True)
class FullGraph:
    vertices: tuple[IntegerInterval, ...]
    adjacency: dict[int, tuple[int, ...]]

    def edges(self) -> Iterable[tuple[int, int]]:
        for u, targets in self.adjacency.items():
            for v in targets:
                yield (u, v)


@dataclass(frozen=True)
class XiGraph:
    """Induced subgraph on uniquely covered intervals plus its 0-1 matrix."""

    vertices: tuple[IntegerInterval, ...]
    types: dict[int, int]
    matrix: tuple[tuple[int, ...], ...]

    @property
    def us(self) -> tuple[int, ...]:
        return tuple(iv.u for iv in self.vertices)

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        us = self.us
        return {
            u: tuple(v for v, bit in zip(us, row) if bit)
            for u, row in zip(us, self.matrix)
        }


@dataclass(frozen=True)
class CongruentSubset:
    """Nonempty set of uniquely covered intervals, pairwise congruent mod n."""

    members: tuple[int, ...]
    residue: int
    occupied: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SccDecomposition:
    """Components sorted by their smallest member, each sorted; ``reach[i]``
    holds every component that component i reaches, i included; ``comp_of``
    maps each vertex to its component's index; ``cycling`` holds the
    components with a cycle (two or more vertices, or a loop)."""

    components: tuple[tuple, ...]
    reach: tuple[frozenset[int], ...]
    radii: tuple[RadiusResult, ...]
    comp_of: dict
    cycling: frozenset[int]

    def precedes(self, i: int, j: int) -> bool:
        return j in self.reach[i]


@dataclass(frozen=True)
class CongruentGraph:
    """``succ`` maps each subset's members to its successors' members;
    ``vertices`` and ``adjacency`` (each edge labelled with its residue h)
    are derived from it on first use."""

    n: int
    succ: dict[tuple[int, ...], tuple[tuple[int, ...], ...]]
    scc: SccDecomposition

    @cached_property
    def vertices(self) -> tuple[CongruentSubset, ...]:
        return tuple(_congruent_subset(members, self.n) for members in self.succ)

    @cached_property
    def adjacency(self) -> dict[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]:
        n = self.n
        return {k: tuple((t[0] % n, t) for t in targets) for k, targets in self.succ.items()}


def build_full_graph(inst: ProblemInstance) -> FullGraph:
    weights = inst.cube_weights
    n = inst.n
    adjacency = {}
    for u in u_range(inst):
        targets: set[int] = set()
        for t in range(inst.proj_min, inst.proj_max):
            if weights.get(u - t, 0):
                targets.update(range(n * t, n * t + n))
        adjacency[u] = tuple(sorted(targets))
    vertices = tuple(make_interval(inst, u) for u in u_range(inst))
    return FullGraph(vertices=vertices, adjacency=adjacency)


def build_xi_graph(inst: ProblemInstance) -> XiGraph:
    types = xi_types(inst)
    us = sorted(types)
    n = inst.n
    matrix = tuple(
        tuple(1 if n * types[u] <= v <= n * types[u] + n - 1 else 0 for v in us)
        for u in us
    )
    vertices = tuple(make_interval(inst, u) for u in us)
    return XiGraph(vertices=vertices, types=types, matrix=matrix)


def subset_successor(
    types: Mapping[int, int], n: int, members: tuple[int, ...], h: int
) -> tuple[int, ...] | None:
    """Image of a subset under residue h, or None when it leaves the
    uniquely covered collection: the edge rule for one subset, which
    ``build_congruent_graph`` applies to whole classes at once on masks."""
    image = sorted({n * types[u] + h for u in members})
    if all(v in types for v in image):
        return tuple(image)
    return None


def _residue_classes(types: Mapping[int, int], n: int) -> dict[int, list[int]]:
    """Residue h -> the uniquely covered intervals congruent to h mod n,
    ascending; residues ascending by their smallest member."""
    classes: dict[int, list[int]] = {}
    for u in sorted(types):
        classes.setdefault(u % n, []).append(u)
    return classes


def _congruent_subset(members: tuple[int, ...], n: int) -> CongruentSubset:
    # members ascend and share u mod n, so their quotients ascend strictly
    return CongruentSubset(members, members[0] % n, tuple([u // n for u in members]))


def _subset_masks(
    classes: Mapping[int, list[int]]
) -> list[tuple[tuple[int, ...], int, int]]:
    """(members, residue, mask) for every nonempty subset of every class,
    ascending by members; bit i of ``mask`` stands for member i of the
    class.  Raises TooLarge, before enumerating, when the sum of 2**|class|
    over the classes exceeds _SUBSET_LIMIT."""
    if sum(2 ** len(cls) for cls in classes.values()) > _SUBSET_LIMIT:
        raise TooLarge(f"residue classes have more than {_SUBSET_LIMIT} subsets")
    out = []
    for h, cls in classes.items():
        # members[mask | 1 << i] = members[mask] + (cls[i],) for mask < 2**i
        members: list[tuple[int, ...]] = [()]
        for u in cls:
            members += [m + (u,) for m in members]
        out.extend(zip(members[1:], repeat(h), range(1, len(members))))
    out.sort()
    return out


def congruent_vertices(
    inst: ProblemInstance, types: Mapping[int, int] | None = None
) -> list[CongruentSubset]:
    """Vertices of the subset graph, ascending by members: every nonempty
    subset of every residue class of the uniquely covered intervals.

    This is also every subset the multiplicity search can start from: for a
    fixed residue h, p -> n*p + h maps the working intervals one-to-one onto
    residue class h of ``u_range``, so the uniquely covered aligned subsets
    {n*p + h : p in P} are exactly the subsets of the classes, and
    successors never leave them.  A subset is enumerated as an int mask over
    its class (bit i for the class's i-th smallest member), the form in
    which ``build_congruent_graph`` computes its edges; each class's member
    tuples are built by doubling, appending member i to every subset of the
    members before it.  ``types`` is ``xi_types(inst)``, computed here when
    not given.  Raises TooLarge, before enumerating, when the sum of
    2**|class| over the classes exceeds _SUBSET_LIMIT.
    """
    if types is None:
        types = xi_types(inst)
    subsets = _subset_masks(_residue_classes(types, inst.n))
    return [_congruent_subset(members, inst.n) for members, _, _ in subsets]


def build_congruent_graph(inst: ProblemInstance) -> CongruentGraph:
    """The subset graph, built on int masks and decomposed on vertex
    numbers; member tuples appear only in the returned graph.

    Under residue h, member i of a class goes to the interval n*t + h, which
    is either bit ``bits[i]`` of the class of residue h or, when it is not
    uniquely covered, bit i of the fail mask.  A subset's image is the union
    of its members' bits, so image[mask | 1 << i] = image[mask] | bits[i]
    for every mask < 2**i, and the subset has an edge under h exactly when
    it shares no bit with the fail mask.  The returned graph holds the
    successor map and the decomposition on member tuples; its vertex records
    and residue-labelled adjacency are built from them on first use, since
    neither the report nor the multiplicity search reads them.
    """
    types = xi_types(inst)
    n = inst.n
    classes = _residue_classes(types, n)
    subsets = _subset_masks(classes)
    # vertices are numbered in ascending member order, so scc's components,
    # sorted by number, come out sorted by members
    number = {h: [0] * 2 ** len(cls) for h, cls in classes.items()}
    for v, (_, h, mask) in enumerate(subsets):
        number[h][mask] = v
    position = {u: i for cls in classes.values() for i, u in enumerate(cls)}
    # out_edges[c] = (target vertex per mask, fail mask) for each residue h,
    # ascending, that has a class
    out_edges: dict[int, list[tuple[list[int], int]]] = {}
    for c, cls in classes.items():
        out_edges[c] = []
        for h in range(n):
            bits, fail = [], 0
            for i, u in enumerate(cls):
                target = n * types[u] + h
                if target in types:
                    bits.append(1 << position[target])
                else:
                    bits.append(0)
                    fail |= 1 << i
            # image[mask | 1 << i] = image[mask] | bits[i] for mask < 2**i
            image = [0]
            for bit in bits:
                image += [m | bit for m in image]
            # without a class of residue h every member fails: no edges
            if h in number:
                out_edges[c].append(([number[h][m] for m in image], fail))
    succ = {
        v: tuple([target[mask] for target, fail in out_edges[c] if not mask & fail])
        for v, (_, c, mask) in enumerate(subsets)
    }
    decomposition = scc(succ)
    key = [members for members, _, _ in subsets]
    return CongruentGraph(
        n=n,
        succ={key[v]: tuple([key[w] for w in targets]) for v, targets in succ.items()},
        scc=dataclasses.replace(
            decomposition,
            components=tuple(
                tuple([key[v] for v in comp]) for comp in decomposition.components
            ),
            comp_of={key[v]: idx for v, idx in decomposition.comp_of.items()},
        ),
    )


def component_matrix(adjacency: Mapping, comp) -> list[list[int]]:
    """0-1 matrix of the subgraph induced on comp, indexed in comp order."""
    pos = {v: i for i, v in enumerate(comp)}
    sub = [[0] * len(comp) for _ in comp]
    for v in comp:
        for w in adjacency[v]:
            if w in pos:
                sub[pos[v]][pos[w]] = 1
    return sub


def scc(succ: Mapping) -> SccDecomposition:
    """Strongly connected components of the graph with successor map
    ``succ`` (every vertex a key), with the components each one reaches and
    a certified spectral radius per component (0-1 adjacency restricted).
    A single vertex's radius is its loop bit, one shared ``RadiusResult``
    for 0 and one for 1; only blocks of two or more vertices are run
    through ``block_radius``."""
    emitted = strongly_connected_components(sorted(succ), succ)
    comps = sorted((tuple(sorted(c)) for c in emitted), key=lambda c: c[0])
    comp_of = {v: idx for idx, comp in enumerate(comps) for v in comp}
    # Tarjan emits a component only after every component it reaches
    reach: list[frozenset[int]] = [frozenset()] * len(comps)
    for comp in emitted:
        idx = comp_of[comp[0]]
        reached = {idx}
        for jdx in {comp_of[w] for v in comp for w in succ[v]}:
            reached |= reach[jdx]
        reach[idx] = frozenset(reached)
    cycling = frozenset(
        idx for idx, c in enumerate(comps) if len(c) > 1 or c[0] in succ[c[0]]
    )
    return SccDecomposition(
        components=tuple(comps),
        reach=tuple(reach),
        radii=tuple(
            block_radius(component_matrix(succ, c), range(len(c)))
            if len(c) > 1
            else _LOOP_RADII[idx in cycling]
            for idx, c in enumerate(comps)
        ),
        comp_of=comp_of,
        cycling=cycling,
    )


def psi_step(inst: ProblemInstance, x: Fraction, interval: IntegerInterval | int) -> Fraction:
    """One step of the expanding interval map: x in the open interval
    [u, u+1]/n goes to n*x - u + t, landing inside (t, t+1)."""
    u = interval.u if isinstance(interval, IntegerInterval) else int(interval)
    types = xi_types(inst)
    if u not in types:
        raise NotInXi(f"interval u={u} is not uniquely covered")
    x = Fraction(x)
    left = Fraction(u, inst.n)
    right = Fraction(u + 1, inst.n)
    if not left < x < right:
        raise NotInterior(f"{x} is not interior to [{left}, {right}]")
    return inst.n * x - u + types[u]
