"""Differential proof: the bipartite cover max-flow against ``FlowNetwork``.

:func:`~repro.graphs.vertex_cover.min_weight_vertex_cover` reads its
cover off the vertices reachable from the source after a maximum flow.
That set is the unique minimal minimum cut, so the cover must equal, as
a set, the one the generic Dinic :class:`~repro.graphs.flow.FlowNetwork`
yields on the same network.  The reference gives each edge a capacity
above the total weight, which no minimum cut can sever, so big-int
weights stay exact on both sides.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from diffutil import bipartite_graphs
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.flow import FlowNetwork
from repro.graphs.generators import path_graph
from repro.graphs.vertex_cover import (
    is_vertex_cover,
    konig_vertex_cover,
    min_weight_vertex_cover,
)


def flow_network_cover(graph: BipartiteGraph, weights: list[int]) -> set[int]:
    """The minimal-min-cut cover from the generic Dinic max-flow."""
    n = graph.n
    if n == 0:
        return set()
    s, t = n, n + 1
    uncuttable = sum(weights) + 1
    net = FlowNetwork(n + 2)
    for v in range(n):
        if graph.side[v] == 0:
            net.add_edge(s, v, weights[v])
        else:
            net.add_edge(v, t, weights[v])
    for u, v in graph.edges():
        left, right = (u, v) if graph.side[u] == 0 else (v, u)
        net.add_edge(left, right, uncuttable)
    net.max_flow(s, t)
    source_side = net.min_cut_source_side(s)
    return {v for v in range(n) if (graph.side[v] == 0) != (v in source_side)}


weight_ranges = st.sampled_from([(1, 1), (1, 19), (2**59, 2**80)])


@given(graph=bipartite_graphs(max_side=9), bounds=weight_ranges, data=st.data())
def test_cover_equals_flow_network_cover(graph, bounds, data):
    weights = data.draw(
        st.lists(st.integers(*bounds), min_size=graph.n, max_size=graph.n),
        label="weights",
    )
    cover = min_weight_vertex_cover(graph, weights)
    assert cover == flow_network_cover(graph, weights)
    assert is_vertex_cover(graph, cover)


@given(graph=bipartite_graphs(max_side=9))
def test_unit_weight_cover_equals_konig(graph):
    cover = min_weight_vertex_cover(graph, [1] * graph.n)
    assert cover == konig_vertex_cover(graph)
    assert cover == flow_network_cover(graph, [1] * graph.n)


def zigzag_path(k: int) -> BipartiteGraph:
    """A path ``L0 - R1 - L1 - R2 - ... - L(k-1) - Rk`` on ``2k`` vertices.

    Rights get ids ``0 .. k-1`` in path order and ``L0`` the largest id.
    A greedy pass that takes left vertices in id order, each preferring
    its right of lower (degree, id), matches ``Li`` to ``Ri`` for
    ``i < k - 1`` and ``L(k-1)`` to ``Rk``, stranding ``L0`` and leaving
    ``R(k-1)`` free: the augmenting path then runs the whole graph.
    """
    rights = list(range(k))
    lefts = [2 * k - 1] + list(range(k, 2 * k - 1))
    edges = [(lefts[0], rights[0])]
    for i in range(1, k):
        edges += [(lefts[i], rights[i - 1]), (lefts[i], rights[i])]
    return BipartiteGraph(2 * k, edges, side=[1] * k + [0] * k)


def test_long_paths_need_no_recursion():
    for graph in (path_graph(5001), zigzag_path(2500)):
        for weights in ([1] * graph.n, [v % 7 + 1 for v in range(graph.n)]):
            cover = min_weight_vertex_cover(graph, weights)
            assert cover == flow_network_cover(graph, weights)
        assert min_weight_vertex_cover(graph, [1] * graph.n) == konig_vertex_cover(graph)
