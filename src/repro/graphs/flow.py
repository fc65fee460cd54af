"""Maximum flow / minimum cut via Dinic's algorithm.

A general-purpose max-flow on arbitrary directed networks (Dinic's
``O(V^2 E)``, ``O(E sqrt(V))`` on unit-capacity bipartite networks;
the paper cites Orlin [22] for an ``O(|J||E|)`` max flow).  Algorithm 1's
maximum-weight independent set does not run through it: that cut has
its own bipartite max-flow in :mod:`repro.graphs.vertex_cover`, and this
class is the independent reference that the cover is tested against.

Capacities are non-negative integers; ``INF`` models uncuttable edges.
"""

from __future__ import annotations

from collections import deque

__all__ = ["FlowNetwork", "max_flow_min_cut", "INF"]

#: A large finite capacity standing in for "infinite".  It is uncuttable
#: only while the total finite capacity of the network stays below it;
#: callers must keep it so, or pass a larger capacity of their own.
INF = 1 << 60


class FlowNetwork:
    """A directed flow network with integer capacities (Dinic's algorithm).

    Arc ``i`` and its reverse arc ``i ^ 1`` are stored adjacently in a flat
    arc list, the usual trick that makes residual updates O(1).
    """

    __slots__ = ("n", "nxt", "to", "cap", "first")

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("a flow network needs at least source and sink")
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.first: list[int] = [-1] * n
        self.nxt: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add a directed edge ``u -> v``; returns its arc index."""
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge endpoints ({u}, {v}) out of range")
        for (a, b, c) in ((u, v, capacity), (v, u, 0)):
            self.to.append(b)
            self.cap.append(c)
            self.nxt.append(self.first[a])
            self.first[a] = len(self.to) - 1
        return len(self.to) - 2

    # ------------------------------------------------------------------ #

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        """Level graph for the current residual network; ``None`` if ``t``
        is unreachable (i.e. the flow is maximum)."""
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            e = self.first[u]
            while e != -1:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] == -1:
                    level[v] = level[u] + 1
                    q.append(v)
                e = self.nxt[e]
        return level if level[t] != -1 else None

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push one augmenting path along the level graph (iterative DFS
        with the current-arc optimisation); returns the amount pushed."""
        stack = [s]
        path: list[int] = []  # arc indices along the current partial path
        while stack:
            u = stack[-1]
            if u == t:
                pushed = min(self.cap[e] for e in path)
                for e in path:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                return pushed
            e = it[u]
            while e != -1:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] == level[u] + 1:
                    break
                e = self.nxt[e]
            it[u] = e
            if e != -1:
                path.append(e)
                stack.append(self.to[e])
            else:
                level[u] = -1  # dead end in this phase: prune
                stack.pop()
                if path:
                    path.pop()
        return 0

    def max_flow(self, s: int, t: int) -> int:
        """Total maximum flow from ``s`` to ``t``."""
        if s == t:
            raise ValueError("source and sink must differ")
        total = 0
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                return total
            it = list(self.first)
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                total += pushed

    def min_cut_source_side(self, s: int) -> set[int]:
        """Vertices reachable from ``s`` in the residual graph.

        Call after :meth:`max_flow`; the returned set ``S`` (with
        ``T = V \\ S``) is a minimum cut, and the saturated arcs from ``S``
        to ``T`` realise its capacity.
        """
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            e = self.first[u]
            while e != -1:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
                e = self.nxt[e]
        return seen


def max_flow_min_cut(
    n: int,
    edges: list[tuple[int, int, int]],
    s: int,
    t: int,
) -> tuple[int, set[int]]:
    """One-shot helper: build the network, run Dinic, return ``(flow, S)``.

    ``S`` is the source side of a minimum cut.
    """
    net = FlowNetwork(n)
    for u, v, c in edges:
        net.add_edge(u, v, c)
    value = net.max_flow(s, t)
    return value, net.min_cut_source_side(s)
