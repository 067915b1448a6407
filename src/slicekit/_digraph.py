"""Iterative Tarjan SCCs (Tarjan 1972) on vertices numbered 0..V-1.

The graph is a successor table: ``succ[v]`` lists the successors of vertex
v, each an int in range(len(succ)).  Index, low link and on-stack state are
kept in lists indexed by vertex.  Components come out in Tarjan's emission
order, which callers sort when they need a deterministic order.
"""

from __future__ import annotations

from typing import Sequence


def strongly_connected_components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative, with roots taken in ascending order.
    Returns components in reverse topological order of the condensation
    (standard Tarjan emission order)."""
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
