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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from ._digraph import (
    condensation_reachability,
    sort_components,
    strongly_connected_components,
)
from .errors import NotInterior, NotInXi, TooLarge
from .instance import ProblemInstance
from .lattice import IntegerInterval, make_interval, u_range, xi_types
from .spectral import RadiusResult, spectral_radius

# Largest sum over residue classes of 2**|class| the subset graph enumerates.
_SUBSET_LIMIT = 2**20


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
    """``comp_of`` maps each vertex to its component's index; ``cycling``
    holds the components with a cycle (two or more vertices, or a loop)."""

    components: tuple[tuple, ...]
    order: frozenset[tuple[int, int]]
    radii: tuple[RadiusResult, ...]
    comp_of: dict
    cycling: frozenset[int]

    def precedes(self, i: int, j: int) -> bool:
        return (i, j) in self.order


@dataclass(frozen=True)
class CongruentGraph:
    vertices: tuple[CongruentSubset, ...]
    adjacency: dict[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]
    scc: SccDecomposition


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


def make_congruent_subset(inst: ProblemInstance, members: Iterable[int]) -> CongruentSubset:
    ms = tuple(sorted(set(members)))
    if not ms:
        raise ValueError("congruent subset must be nonempty")
    residues = {u % inst.n for u in ms}
    if len(residues) > 1:
        raise ValueError(f"members {ms} are not congruent mod {inst.n}")
    occupied = tuple(sorted({u // inst.n for u in ms}))
    return CongruentSubset(members=ms, residue=ms[0] % inst.n, occupied=occupied)


def subset_successor(
    types: Mapping[int, int], n: int, members: tuple[int, ...], h: int
) -> tuple[int, ...] | None:
    """Image of a subset under residue h, or None when it leaves the
    uniquely covered collection."""
    image = sorted({n * types[u] + h for u in members})
    if all(v in types for v in image):
        return tuple(image)
    return None


def _residue_classes(types: Mapping[int, int], n: int) -> list[list[int]]:
    classes: dict[int, list[int]] = {}
    for u in sorted(types):
        classes.setdefault(u % n, []).append(u)
    return list(classes.values())


def congruent_vertices(
    inst: ProblemInstance, types: Mapping[int, int] | None = None
) -> list[CongruentSubset]:
    """Vertices of the subset graph, ascending by members: every nonempty
    subset of every residue class of the uniquely covered intervals.

    This is also every subset the multiplicity search can start from: for a
    fixed residue h, p -> n*p + h maps the working intervals one-to-one onto
    residue class h of ``u_range``, so the uniquely covered aligned subsets
    {n*p + h : p in P} are exactly the subsets of the classes, and
    successors never leave them.  ``types`` is ``xi_types(inst)``, computed
    here when not given.  Raises TooLarge, before enumerating, when the sum
    of 2**|class| over the classes exceeds _SUBSET_LIMIT.
    """
    if types is None:
        types = xi_types(inst)
    classes = _residue_classes(types, inst.n)
    if sum(2 ** len(cls) for cls in classes) > _SUBSET_LIMIT:
        raise TooLarge(f"residue classes have more than {_SUBSET_LIMIT} subsets")
    out = []
    for cls in classes:
        for mask in range(1, 2 ** len(cls)):
            members = tuple(cls[i] for i in range(len(cls)) if mask >> i & 1)
            out.append(make_congruent_subset(inst, members))
    out.sort(key=lambda s: s.members)
    return out


def build_congruent_graph(inst: ProblemInstance) -> CongruentGraph:
    types = xi_types(inst)
    vertices = congruent_vertices(inst, types)
    n = inst.n
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
    decomposition = scc(succ)
    # a subset never grows under successors, so singleton components must
    # reproduce the restricted graph's components verbatim
    xi_succ = {
        u: tuple(v for v in range(n * t, n * t + n) if v in types)
        for u, t in types.items()
    }
    xi_components = {
        frozenset((u,) for u in comp)
        for comp in strongly_connected_components(sorted(types), xi_succ)
    }
    subset_components = {frozenset(comp) for comp in decomposition.components}
    assert xi_components <= subset_components
    return CongruentGraph(vertices=tuple(vertices), adjacency=adjacency, scc=decomposition)


def _extract_adjacency(graph) -> dict:
    if isinstance(graph, FullGraph):
        return dict(graph.adjacency)
    if isinstance(graph, XiGraph):
        return graph.adjacency()
    if isinstance(graph, CongruentGraph):
        return {k: tuple(t for _, t in outs) for k, outs in graph.adjacency.items()}
    if isinstance(graph, Mapping):
        return {k: tuple(v) for k, v in graph.items()}
    raise TypeError(f"cannot take SCCs of {type(graph).__name__}")


def component_matrix(adjacency: Mapping, comp) -> list[list[int]]:
    """0-1 matrix of the subgraph induced on comp, indexed in comp order."""
    pos = {v: i for i, v in enumerate(comp)}
    sub = [[0] * len(comp) for _ in comp]
    for v in comp:
        for w in adjacency[v]:
            if w in pos:
                sub[pos[v]][pos[w]] = 1
    return sub


def scc(graph) -> SccDecomposition:
    """Strongly connected components with the reachability partial order and
    a certified spectral radius per component (0-1 adjacency restricted)."""
    adjacency = _extract_adjacency(graph)
    vertices = sorted(adjacency)
    comps = sort_components(
        strongly_connected_components(vertices, adjacency), key=lambda v: v
    )
    order = condensation_reachability(comps, adjacency)
    return SccDecomposition(
        components=tuple(tuple(c) for c in comps),
        order=frozenset(order),
        radii=tuple(spectral_radius(component_matrix(adjacency, c)) for c in comps),
        comp_of={v: idx for idx, comp in enumerate(comps) for v in comp},
        cycling=frozenset(
            idx for idx, c in enumerate(comps) if len(c) > 1 or c[0] in adjacency[c[0]]
        ),
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
