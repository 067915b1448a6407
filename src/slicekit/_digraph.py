"""Iterative Tarjan SCCs.  Vertices are arbitrary hashables; components
come out in Tarjan's emission order, which callers sort when they need a
deterministic order.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

Vertex = Hashable


def strongly_connected_components(
    vertices: Sequence[Vertex], succ: Mapping[Vertex, Iterable[Vertex]]
) -> list[list[Vertex]]:
    """Tarjan's algorithm, iterative.  Returns components in reverse
    topological order of the condensation (standard Tarjan emission order)."""
    index: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    on_stack: set[Vertex] = set()
    stack: list[Vertex] = []
    counter = 0
    comps: list[list[Vertex]] = []

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps
