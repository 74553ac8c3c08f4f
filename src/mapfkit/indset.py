"""Independent-set extraction from the collision graph: exact branch-and-
bound on small connected components, minimum-degree greedy on larger ones.

Every returned set is independent and maximal, and nonempty whenever the
graph has a node, which is what guarantees the iterated solver always fixes
at least one agent per round.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection, Iterable, Mapping, Set

from .conflicts import IntersectionGraph, _components

# Largest component solved exactly; larger ones go to the greedy pass.
EXACT_THRESHOLD = 10


def mis_exact(nodes: Collection[int], adj: Mapping[int, Set[int]]) -> set[int]:
    """Maximum independent set of ``nodes`` by branch-and-bound over
    include/exclude decisions; among maximum sets, the lexicographically
    smallest sorted id tuple wins, so results are reproducible. Including a
    node is tried before excluding it, over sorted ids, so sets of one size
    are met in lexicographic order: the first set of the best size is kept,
    and a subtree that can at most tie it is pruned.

    ``adj`` maps each node to its neighbours, and ``nodes`` must hold every
    neighbour of its members, as a connected component does. Raises
    ValueError above ``EXACT_THRESHOLD`` nodes.
    """
    if len(nodes) > EXACT_THRESHOLD:
        raise ValueError(f"component of size {len(nodes)} exceeds the exact limit {EXACT_THRESHOLD}")
    best_size = -1
    best: tuple[int, ...] = ()

    def visit(remaining: tuple[int, ...], chosen: tuple[int, ...]) -> None:
        nonlocal best_size, best
        if len(chosen) + len(remaining) <= best_size:
            return  # cannot beat the best size; a tie would come later
        if not remaining:
            best_size, best = len(chosen), chosen
            return
        v = remaining[0]
        rest = remaining[1:]
        visit(tuple(u for u in rest if u not in adj[v]), chosen + (v,))
        visit(rest, chosen)

    visit(tuple(sorted(nodes)), ())
    return set(best)


def mis_greedy(nodes: Collection[int], adj: Mapping[int, Set[int]]) -> set[int]:
    """Maximal independent set via minimum-degree greedy: repeatedly take the
    node with the fewest remaining neighbours (smallest id on ties) and
    discard its neighbours. ``nodes`` and ``adj`` are as for ``mis_exact``.

    The remaining nodes sit in a heap of ``(degree, id)`` entries. A node
    whose degree drops gets a new entry; its old ones stay in the heap and
    are skipped when they surface, since their degree is no longer the
    node's. Degrees only fall, so a node's current entry is its smallest,
    and the first live entry popped is the minimum over the remaining
    nodes, as a full scan would find it.
    """
    degree = {n: len(adj[n]) for n in nodes}
    heap = [(d, n) for n, d in degree.items()]
    heapq.heapify(heap)
    remaining = set(nodes)
    chosen: set[int] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v not in remaining or d != degree[v]:
            continue  # a stale entry
        chosen.add(v)
        dropped = (adj[v] & remaining) | {v}
        remaining -= dropped
        for u in dropped:
            for w in adj[u]:
                if w in remaining:
                    degree[w] -= 1
                    heapq.heappush(heap, (degree[w], w))
    return chosen


def independent_set(g: IntersectionGraph, first: Iterable[int]) -> set[int]:
    """The agents a round fixes. The nodes of ``first`` are taken in order,
    each while it is independent of those already taken; ids not in ``g``
    are skipped. The rest is the union over the connected components of the
    nodes neither taken nor adjacent to one taken: the exact solution for
    components up to ``EXACT_THRESHOLD`` nodes, the greedy approximation for
    larger ones. One adjacency map serves the components and both solvers.
    """
    adj = g.adjacency()
    taken: set[int] = set()
    blocked: set[int] = set()  # the nodes taken and their neighbours
    for v in first:
        if v in adj and v not in blocked:
            taken.add(v)
            blocked.add(v)
            blocked |= adj[v]
    if blocked:
        adj = {v: nbs - blocked for v, nbs in adj.items() if v not in blocked}
    for comp in _components(adj, adj):
        if len(comp) <= EXACT_THRESHOLD:
            taken |= mis_exact(comp, adj)
        else:
            taken |= mis_greedy(comp, adj)
    return taken
