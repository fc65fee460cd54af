"""Tests for König and weighted minimum vertex covers."""

import numpy as np
import pytest

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import complete_bipartite, matching_graph, path_graph, star
from repro.graphs.independent_set import max_weight_independent_set
from repro.graphs.matching import maximum_matching_size
from repro.graphs.vertex_cover import (
    is_vertex_cover,
    konig_vertex_cover,
    min_weight_vertex_cover,
)

from tests.conftest import random_bipartite


def brute_min_cover_weight(g: BipartiteGraph, weights) -> int:
    best = sum(weights)
    for mask in range(1 << g.n):
        cover = [v for v in range(g.n) if (mask >> v) & 1]
        if is_vertex_cover(g, cover):
            best = min(best, sum(weights[v] for v in cover))
    return best


class TestKonig:
    def test_star_covers_with_center(self):
        cover = konig_vertex_cover(star(5))
        assert cover == {0}

    def test_matching_graph(self):
        cover = konig_vertex_cover(matching_graph(3))
        assert len(cover) == 3
        assert is_vertex_cover(matching_graph(3), cover)

    def test_cover_size_equals_matching(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            g = random_bipartite(rng)
            cover = konig_vertex_cover(g)
            assert is_vertex_cover(g, cover)
            assert len(cover) == maximum_matching_size(g)

    def test_empty_graph(self):
        assert konig_vertex_cover(BipartiteGraph(4, [])) == set()


class TestWeightedCover:
    def test_unit_weights_match_konig_size(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_bipartite(rng, max_side=6)
            cover = min_weight_vertex_cover(g, [1] * g.n)
            assert is_vertex_cover(g, cover)
            assert len(cover) == maximum_matching_size(g)

    def test_weighted_optimality_vs_bruteforce(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            g = random_bipartite(rng, max_side=5)
            weights = [int(x) for x in rng.integers(1, 12, g.n)]
            cover = min_weight_vertex_cover(g, weights)
            assert is_vertex_cover(g, cover)
            assert sum(weights[v] for v in cover) == brute_min_cover_weight(g, weights)

    def test_prefers_light_side(self):
        # star with heavy centre: cover with all leaves instead
        g = star(3)
        cover = min_weight_vertex_cover(g, [100, 1, 1, 1])
        assert cover == {1, 2, 3}

    def test_rejects_bad_weights(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            min_weight_vertex_cover(g, [1, 1])
        with pytest.raises(ValueError):
            min_weight_vertex_cover(g, [1, 0, 1])

    def test_empty_graph(self):
        assert min_weight_vertex_cover(BipartiteGraph(0, []), []) == set()

    def test_weights_beyond_two_to_the_sixty(self):
        # an edge capacity of 2**60 standing in for "infinite" would be
        # the cheaper cut here, leaving the edge uncovered
        g = BipartiteGraph(2, [(0, 1)], [0, 1])
        cover = min_weight_vertex_cover(g, [2**61, 2**61])
        assert cover == {0}
        independent = max_weight_independent_set(g, [2**61, 2**61])
        assert g.is_independent_set(independent)
        assert independent == {1}

    def test_complete_bipartite_takes_smaller_side(self):
        g = complete_bipartite(2, 6)
        cover = min_weight_vertex_cover(g, [1] * 8)
        assert cover == {0, 1}


class TestIsVertexCover:
    def test_detects_uncovered_edge(self):
        g = path_graph(3)
        assert not is_vertex_cover(g, [0])
        assert is_vertex_cover(g, [1])

    def test_full_vertex_set_always_covers(self):
        g = complete_bipartite(3, 3)
        assert is_vertex_cover(g, range(6))
