"""Minimum vertex covers in bipartite graphs.

Two constructions:

* :func:`konig_vertex_cover` — the cardinality version from a maximum
  matching (König's theorem), used to compute independence numbers for the
  random-graph experiments of Section 4.1.
* :func:`min_weight_vertex_cover` — the weighted version via a minimum
  s-t cut (König–Egerváry), the engine behind the maximum-*weight*
  independent set that step 2 of Algorithm 1 requires.  Its max-flow is
  written for the bipartite cover network (flat integer CSR arrays,
  greedy seeding, Dinic phases with an iterative blocking-flow DFS and
  no "infinite" capacities), so integer weights of any size are exact;
  the generic :class:`~repro.graphs.flow.FlowNetwork` is its test
  reference.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.matching import hopcroft_karp

__all__ = ["konig_vertex_cover", "min_weight_vertex_cover", "is_vertex_cover"]


def konig_vertex_cover(graph: BipartiteGraph) -> set[int]:
    """A minimum-cardinality vertex cover (König construction).

    Starting from the exposed left vertices of a maximum matching, walk
    alternating paths (unmatched edge left->right, matched edge
    right->left); with ``Z`` the set of visited vertices the cover is
    ``(L \\ Z) | (R & Z)`` and its size equals the matching size.
    """
    mate = hopcroft_karp(graph)
    left = graph.vertices_on_side(0)
    in_z = [False] * graph.n
    stack = [u for u in left if mate[u] == -1]
    for u in stack:
        in_z[u] = True
    while stack:
        u = stack.pop()
        if graph.side[u] == 0:  # move along non-matching edges
            for v in graph.neighbors(u):
                if v != mate[u] and not in_z[v]:
                    in_z[v] = True
                    stack.append(v)
        else:  # move along the matching edge
            w = mate[u]
            if w != -1 and not in_z[w]:
                in_z[w] = True
                stack.append(w)
    cover = {u for u in range(graph.n) if graph.side[u] == 0 and not in_z[u]}
    cover |= {u for u in range(graph.n) if graph.side[u] == 1 and in_z[u]}
    return cover


def min_weight_vertex_cover(
    graph: BipartiteGraph, weights: Sequence[int]
) -> set[int]:
    """A minimum-weight vertex cover for positive integer weights.

    Network: ``source -> l`` with capacity ``w(l)`` for left vertices,
    ``r -> sink`` with capacity ``w(r)`` for right vertices, and
    unbounded capacity across each edge, so a minimum cut severs only
    weight arcs and the severed arcs are the cover.  With ``S`` the
    vertices reachable from the source in the residual graph of a
    maximum flow, the cover is ``(L \\ S) | (R & S)``.  ``S`` is the
    same for every maximum flow (it is the unique minimal minimum cut),
    so the cover does not depend on how the flow was found.
    """
    if len(weights) != graph.n:
        raise ValueError(f"weights has length {len(weights)}, expected {graph.n}")
    if any(w <= 0 for w in weights):
        raise ValueError("vertex weights must be positive")
    reachable = _residual_reachable(graph, weights)
    side = graph.side
    return {v for v in range(graph.n) if reachable[v] != (side[v] == 0)}


def _residual_reachable(
    graph: BipartiteGraph, weights: Sequence[int]
) -> list[bool]:
    """Per vertex: reachable from the source after a maximum flow.

    Dinic's algorithm specialised to the cover network.  Edge arcs are
    uncapacitated, so the residual graph has exactly these arcs:
    ``source -> l`` while ``l`` has capacity left, ``l -> r`` for every
    edge, ``r -> l`` while the edge carries flow, and ``r -> sink``
    while ``r`` has capacity left.  Adjacency is flat CSR indexed from
    both sides: vertex ``v``'s arcs are ``start[v] .. start[v + 1] - 1``
    and ``head[a]`` is the far end of arc ``a``.  The flow of an edge
    lives on its left arc ``a`` as ``flow[a]``; the right arc ``b`` of
    the same edge reaches it through ``twin[b] = a``.  ``rem[v]`` is
    the capacity ``v``'s source or sink arc has left.
    """
    n = graph.n
    side = graph.side
    degree = [graph.degree(v) for v in range(n)]
    start = [0] * (n + 1)
    total = 0
    for v in range(n):
        total += degree[v]
        start[v + 1] = total
    # a left vertex lists its rights by (degree, id), so the seeding
    # below fills the rights with the fewest alternatives first
    rank = [degree[v] * n + v for v in range(n)]
    head = [0] * total
    twin = [0] * total
    fill = start[:n]
    left = [v for v in range(n) if side[v] == 0]
    right = [v for v in range(n) if side[v] == 1]
    for u in left:
        for w in sorted(graph.neighbors(u), key=rank.__getitem__):
            a = fill[u]
            fill[u] = a + 1
            b = fill[w]
            fill[w] = b + 1
            head[a] = w
            head[b] = u
            twin[b] = a
    flow = [0] * total
    rem = list(weights)

    # greedy seeding (as Hopcroft-Karp seeds a maximal matching): in id
    # order, push what each left vertex can into unsaturated rights
    for u in left:
        x = rem[u]
        for a in range(start[u], start[u + 1]):
            w = head[a]
            y = rem[w]
            if y:
                d = x if x < y else y
                flow[a] = d
                rem[w] = y - d
                x -= d
                if not x:
                    break
        rem[u] = x

    while True:
        # levels = residual distance to the sink, by BFS backwards over
        # alternating paths from the unsaturated rights (level 0; lefts
        # sit on odd levels).  Searching from the sink side skips the
        # part of the graph that can no longer reach the sink, which
        # is most of it once the flow is nearly maximum.
        level = [-1] * n
        frontier = [v for v in right if rem[v]]
        for v in frontier:
            level[v] = 0
        depth = 0
        roots: list[int] = []  # unsaturated lefts on the shortest paths
        while frontier and not roots:
            depth += 1
            found: list[int] = []
            if depth & 1:
                for u in frontier:
                    for b in range(start[u], start[u + 1]):
                        w = head[b]
                        if level[w] < 0:
                            level[w] = depth
                            found.append(w)
                            if rem[w]:
                                roots.append(w)
            else:
                for u in frontier:
                    for a in range(start[u], start[u + 1]):
                        if flow[a]:
                            w = head[a]
                            if level[w] < 0:
                                level[w] = depth
                                found.append(w)
            frontier = found
        if not roots:
            break

        # blocking flow: iterative DFS down the levels with current-arc
        # pointers; a dead end drops out for the rest of the phase
        current = start[:n]
        for root in roots:
            path = [root]
            arcs: list[int] = []  # arcs[k] leads from path[k] to path[k + 1]
            while path:
                u = path[-1]
                lu = level[u]
                if lu == 0:
                    if rem[u]:
                        d = rem[root] if rem[root] < rem[u] else rem[u]
                        for k in range(1, len(arcs), 2):
                            f = flow[twin[arcs[k]]]
                            if f < d:
                                d = f
                        rem[root] -= d
                        rem[u] -= d
                        for k in range(0, len(arcs), 2):
                            flow[arcs[k]] += d
                        for k in range(1, len(arcs), 2):
                            flow[twin[arcs[k]]] -= d
                        if not rem[root]:
                            break
                        path = [root]
                        arcs = []
                        continue
                    a = end = 0  # saturated: a dead end
                else:
                    a = current[u]
                    end = start[u + 1]
                    nxt = lu - 1
                    if lu & 1:
                        while a < end and level[head[a]] != nxt:
                            a += 1
                    else:
                        while a < end and (
                            level[head[a]] != nxt or not flow[twin[a]]
                        ):
                            a += 1
                    current[u] = a
                if a < end:
                    arcs.append(a)
                    path.append(head[a])
                else:
                    level[u] = -1
                    path.pop()
                    if arcs:
                        arcs.pop()

    # the flow is maximum: search forwards from the source
    reached = [False] * n
    frontier = [u for u in left if rem[u]]
    for u in frontier:
        reached[u] = True
    while frontier:
        found = []
        for u in frontier:
            if side[u] == 0:
                for a in range(start[u], start[u + 1]):
                    w = head[a]
                    if not reached[w]:
                        reached[w] = True
                        found.append(w)
            else:
                for b in range(start[u], start[u + 1]):
                    w = head[b]
                    if not reached[w] and flow[twin[b]]:
                        reached[w] = True
                        found.append(w)
        frontier = found
    return reached


def is_vertex_cover(graph: BipartiteGraph, cover: Iterable[int]) -> bool:
    """Whether every edge has at least one endpoint in ``cover``."""
    cset = set(cover)
    return all(u in cset or v in cset for u, v in graph.edges())
