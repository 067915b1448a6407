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

The subset graph is built on int masks and numbered once: a subset is a
mask over its residue class (bit i for the class's i-th smallest member),
each member's image under residue h is one bit of the class of residue h
or, when it leaves the uniquely covered intervals, a bit of that class's
fail mask, and a subset's image is the union of its members' bits.  Vertex
v is the v-th subset in ascending member order; the returned
``CongruentGraph`` keeps that numbering, with the member tuple and the
comma-joined label of each number, int successor lists and the
decomposition on numbers.

``scc`` is the one place that decomposes a graph, given as a successor
table over vertices 0..V-1: a single Tarjan pass yields the components,
the set of components each one reaches (read off Tarjan's emission order)
and a certified radius per component.  A single vertex's radius is its
loop bit, 0 or 1, so only components of two or more vertices go through
``block_radius``; in subset graphs nearly all components are single
vertices.  The restricted graph is decomposed on positions in ``xi.us``,
its matrix index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

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


class FullGraph(NamedTuple):
    vertices: tuple[IntegerInterval, ...]
    adjacency: dict[int, tuple[int, ...]]

    def edges(self) -> Iterable[tuple[int, int]]:
        for u, targets in self.adjacency.items():
            for v in targets:
                yield (u, v)


class XiGraph:
    """Induced subgraph on uniquely covered intervals plus its 0-1 matrix.
    ``us`` is the matrix index, ascending; ``succ[i]`` lists the positions
    in ``us`` that position i has an edge to."""

    vertices: tuple[IntegerInterval, ...]
    types: dict[int, int]
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, vertices, types, matrix) -> None:
        self.vertices, self.types, self.matrix = vertices, types, matrix

    @cached_property
    def us(self) -> tuple[int, ...]:
        return tuple(iv.u for iv in self.vertices)

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(j for j, bit in enumerate(row) if bit) for row in self.matrix
        )


class CongruentSubset(NamedTuple):
    """Nonempty set of uniquely covered intervals, pairwise congruent mod n."""

    members: tuple[int, ...]
    residue: int
    occupied: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class SccDecomposition(NamedTuple):
    """Components of a graph on vertices 0..V-1, sorted by their smallest
    vertex, each sorted; ``reach[i]`` holds every component that component
    i reaches, i included; ``comp_of[v]`` is the index of vertex v's
    component; ``cycling`` holds the components with a cycle (two or more
    vertices, or a loop)."""

    components: tuple[tuple[int, ...], ...]
    reach: tuple[frozenset[int], ...]
    radii: tuple[RadiusResult, ...]
    comp_of: list[int]
    cycling: frozenset[int]

    def precedes(self, i: int, j: int) -> bool:
        return j in self.reach[i]


class CongruentGraph(NamedTuple):
    """The subset graph on vertex numbers 0..V-1, ascending by members:
    ``vertices[v]`` is the member tuple of vertex v and ``labels[v]`` its
    members comma-joined, ``succ[v]`` the numbers of its successors (one
    per residue h with an edge, ascending in h) and ``scc`` the
    decomposition on numbers."""

    n: int
    vertices: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    succ: tuple[tuple[int, ...], ...]
    scc: SccDecomposition

    def residue(self, v: int) -> int:
        """The residue mod n shared by the members of vertex v."""
        return self.vertices[v][0] % self.n


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


def _ascending_subsets(cls: list[int]) -> tuple[list, list, list]:
    """Every nonempty subset of the ascending members ``cls``, ascending as
    member tuples, as three parallel lists: member tuples, comma-joined
    labels and masks (bit i for member i).

    The subsets whose smallest member is cls[k] are cls[k] alone, then
    cls[k] prepended to each subset of the members after it, so the lists
    double from the last member back, and the 2**(m-1-k) subsets that start
    with cls[k] sit at offset 2**m - 2**(m-k), m = len(cls).
    """
    members: list[tuple[int, ...]] = []
    labels: list[str] = []
    masks: list[int] = []
    for k in range(len(cls) - 1, -1, -1):
        head, text, bit = (cls[k],), str(cls[k]), 1 << k
        members = [head] + [head + m for m in members] + members
        labels = [text] + [f"{text},{s}" for s in labels] + labels
        masks = [bit] + [bit | m for m in masks] + masks
    return members, labels, masks


def _numbered_subsets(classes: Mapping[int, list[int]]):
    """(vertices, labels, number): the member tuple and label of every
    nonempty subset of every class, ascending by members, and
    ``number[h][mask]``, the position in that order of the subset ``mask``
    of class h.  Subsets with different smallest members compare by that
    member alone, so the classes' blocks merge by it with no sort.  Raises
    TooLarge, before enumerating, when the sum of 2**|class| over the
    classes exceeds _SUBSET_LIMIT."""
    if sum(2 ** len(cls) for cls in classes.values()) > _SUBSET_LIMIT:
        raise TooLarge(f"residue classes have more than {_SUBSET_LIMIT} subsets")
    ascending = {h: _ascending_subsets(cls) for h, cls in classes.items()}
    number = {h: [0] * 2 ** len(cls) for h, cls in classes.items()}
    vertices: list[tuple[int, ...]] = []
    labels: list[str] = []
    starts = sorted((u, h, k) for h, cls in classes.items() for k, u in enumerate(cls))
    for _, h, k in starts:
        size = len(classes[h])
        start, stop = 2**size - 2 ** (size - k), 2**size - 2 ** (size - k - 1)
        members, texts, masks = ascending[h]
        table = number[h]
        for v, mask in enumerate(masks[start:stop], len(vertices)):
            table[mask] = v
        vertices += members[start:stop]
        labels += texts[start:stop]
    return vertices, labels, number


def congruent_vertices(inst: ProblemInstance) -> list[CongruentSubset]:
    """Vertices of the subset graph, ascending by members: every nonempty
    subset of every residue class of the uniquely covered intervals.

    This is also every subset the multiplicity search can start from: for a
    fixed residue h, p -> n*p + h maps the working intervals one-to-one onto
    residue class h of ``u_range``, so the uniquely covered aligned subsets
    {n*p + h : p in P} are exactly the subsets of the classes, and
    successors never leave them.  The subsets are enumerated as
    ``build_congruent_graph`` numbers them.  Raises TooLarge, before
    enumerating, when the sum of 2**|class| over the classes exceeds
    _SUBSET_LIMIT.
    """
    types = xi_types(inst)
    n = inst.n
    vertices, _, _ = _numbered_subsets(_residue_classes(types, n))
    # members ascend and share u mod n, so their quotients ascend strictly
    return [CongruentSubset(m, m[0] % n, tuple([u // n for u in m])) for m in vertices]


def build_congruent_graph(inst: ProblemInstance) -> CongruentGraph:
    """The subset graph, built on int masks and decomposed on vertex
    numbers.

    Under residue h, member i of a class goes to the interval n*t + h, which
    is either bit ``bits[i]`` of the class of residue h or, when it is not
    uniquely covered, bit i of the fail mask.  A subset's image is the union
    of its members' bits, so image[mask | 1 << i] = image[mask] | bits[i]
    for every mask < 2**i, and the subset has an edge under h exactly when
    it shares no bit with the fail mask.  Only those subsets are visited,
    as the submasks of the fail mask's complement; most subsets have no
    edge at all.
    """
    types = xi_types(inst)
    n = inst.n
    classes = _residue_classes(types, n)
    vertices, labels, number = _numbered_subsets(classes)
    position = {u: i for cls in classes.values() for i, u in enumerate(cls)}
    succ: list[tuple[int, ...]] = [()] * len(vertices)
    for c, cls in classes.items():
        # out[mask]: the successor numbers of subset mask, ascending in h
        out: dict[int, list[int]] = {}
        for h in range(n):
            bits, fail = [], 0
            for i, u in enumerate(cls):
                target = n * types[u] + h
                if target in types:
                    bits.append(1 << position[target])
                else:
                    bits.append(0)
                    fail |= 1 << i
            # the subsets with an edge under h are the nonempty submasks of
            # ``free``; without a class of residue h every member fails
            free = (1 << len(cls)) - 1 & ~fail
            if not free:
                continue
            # image[mask | 1 << i] = image[mask] | bits[i] for mask < 2**i
            image = [0]
            for bit in bits:
                image += [m | bit for m in image]
            table = number[h]
            mask = free
            while mask:
                out.setdefault(mask, []).append(table[image[mask]])
                mask = (mask - 1) & free
        source = number[c]
        for mask, targets in out.items():
            succ[source[mask]] = tuple(targets)
    return CongruentGraph(
        n=n,
        vertices=tuple(vertices),
        labels=tuple(labels),
        succ=tuple(succ),
        scc=scc(succ),
    )


def component_matrix(adjacency: Mapping | Sequence, comp) -> list[list[int]]:
    """0-1 matrix of the subgraph induced on comp, indexed in comp order;
    ``adjacency[v]`` lists the successors of v."""
    pos = {v: i for i, v in enumerate(comp)}
    sub = [[0] * len(comp) for _ in comp]
    for v in comp:
        for w in adjacency[v]:
            if w in pos:
                sub[pos[v]][pos[w]] = 1
    return sub


def scc(succ: Sequence[Sequence[int]]) -> SccDecomposition:
    """Strongly connected components of the graph on vertices 0..V-1 whose
    successor table is ``succ``, with the components each one reaches and
    a certified spectral radius per component (0-1 adjacency restricted).
    A single vertex's radius is its loop bit, one shared ``RadiusResult``
    for 0 and one for 1; only blocks of two or more vertices are run
    through ``block_radius``."""
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
    radii = [_LOOP_RADII[0]] * len(ordered)
    cycling = []
    # Tarjan emits a component only after every component it reaches
    for comp in emitted:
        idx = comp_of[comp[0]]
        reached = {idx}
        for v in comp:
            for w in succ[v]:
                reached |= reach[comp_of[w]]
        reach[idx] = frozenset(reached)
        if len(comp) > 1:
            cycling.append(idx)
            radii[idx] = block_radius(component_matrix(succ, comp), range(len(comp)))
        elif comp[0] in succ[comp[0]]:
            cycling.append(idx)
            radii[idx] = _LOOP_RADII[1]
    return SccDecomposition(
        components=tuple(map(tuple, ordered)),
        reach=tuple(reach),
        radii=tuple(radii),
        comp_of=comp_of,
        cycling=frozenset(cycling),
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
