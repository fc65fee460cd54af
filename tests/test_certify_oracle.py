"""Tests for :mod:`repro.certify.oracle` — the pruned exact oracle."""

from fractions import Fraction

import numpy as np
import pytest

from repro.certify import certified_optimal, certified_optimal_makespan
from repro.exceptions import InfeasibleInstanceError
from repro.graphs.generators import (
    complete_bipartite,
    matching_graph,
    path_graph,
)
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.brute_force import brute_force_makespan
from repro.scheduling.instance import (
    UniformInstance,
    UnrelatedInstance,
    unit_uniform_instance,
)

from tests.conftest import random_r2, random_uniform_instance

F = Fraction


class TestKnownOptima:
    def test_two_incompatible_jobs(self):
        inst = UniformInstance(matching_graph(1), [4, 4], [1, 1])
        assert certified_optimal_makespan(inst) == 4

    def test_k22_on_two_machines(self):
        inst = UniformInstance(complete_bipartite(2, 2), [1, 1, 1, 1], [1, 1])
        assert certified_optimal_makespan(inst) == 2

    def test_empty_instance(self):
        from repro.graphs.generators import empty_graph

        inst = UniformInstance(empty_graph(0), [], [1])
        result = certified_optimal(inst)
        assert result.makespan == 0 and result.proof == "bound-tight"

    def test_infeasible_single_machine(self):
        inst = UniformInstance(matching_graph(1), [1, 1], [1])
        with pytest.raises(InfeasibleInstanceError):
            certified_optimal(inst)


class TestMatchesBruteForce:
    """Acceptance: the oracle provably matches brute force at small n."""

    def test_random_uniform_instances(self, rng):
        for _ in range(40):
            inst = random_uniform_instance(rng)
            assert inst.n <= 12
            assert certified_optimal_makespan(inst) == brute_force_makespan(inst)

    def test_random_unrelated_instances(self, rng):
        for _ in range(20):
            inst = random_r2(rng)
            assert certified_optimal_makespan(inst) == brute_force_makespan(inst)

    def test_unrelated_with_forbidden_pairs(self, rng):
        for _ in range(10):
            inst = random_r2(rng)
            times = [list(row) for row in inst.times]
            # forbid each job on one machine, alternating; this may make
            # the instance genuinely infeasible (forced co-location of
            # conflicting jobs) — both solvers must then agree on that
            for j in range(inst.n):
                times[j % 2][j] = None
            pinned = UnrelatedInstance(inst.graph, times)
            try:
                naive = brute_force_makespan(pinned)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    certified_optimal(pinned)
                continue
            assert certified_optimal_makespan(pinned) == naive

    def test_masked_isolated_unit_jobs_are_branched(self):
        # isolated unit jobs allowed only on the slow machine: the
        # capacity-bound tail ignores eligibility, so they must be
        # branched on rather than placed greedily on any machine
        from repro.graphs.bipartite import BipartiteGraph

        graph = BipartiteGraph(6, [(0, 1)], side=[0, 1, 0, 0, 0, 0])
        inst = UniformInstance(
            graph, [3, 3, 1, 1, 1, 1], [2, 1],
            eligible=[None, None, [1], [1], [1], [1]],
        )
        result = certified_optimal(inst)
        assert result.schedule.is_feasible()
        assert result.makespan == brute_force_makespan(inst) == 7


class TestProofMetadata:
    def test_bound_tight_fast_path(self):
        # unit jobs on a path: dispatch is exact here and meets the
        # capacity bound, so no nodes should be explored
        inst = unit_uniform_instance(path_graph(6), [1, 1, 1])
        result = certified_optimal(inst)
        assert result.proof == "bound-tight"
        assert result.nodes == 0
        assert result.seeded_from is not None
        assert result.makespan == result.lower_bound

    def test_search_proof_reports_nodes(self):
        inst = UniformInstance(matching_graph(2), [5, 3, 4, 2], [3, 1])
        result = certified_optimal(inst)
        assert result.proof in ("bound-tight", "search-exhausted")
        assert result.makespan == brute_force_makespan(inst)

    def test_optimal_alias(self):
        inst = UniformInstance(path_graph(3), [2, 1, 2], [1, 1])
        result = certified_optimal(inst)
        assert result.optimal == result.makespan


class TestScaleTarget:
    """Acceptance: n = 30 uniform unit-job bipartite in well under a minute."""

    @pytest.mark.parametrize("seed,p,speeds", [
        (3, 0.2, [3, 2, 2, 1]),
        (7, 0.35, [1, 1, 1, 1]),
        (11, 0.15, [5, 3, 1]),
    ])
    def test_n30_unit_bipartite(self, seed, p, speeds):
        import time

        graph = gnnp(15, p, seed=seed)  # 30 vertices
        inst = unit_uniform_instance(graph, speeds)
        start = time.perf_counter()
        result = certified_optimal(inst)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert result.schedule.is_feasible()
        assert result.lower_bound is not None
        assert result.makespan >= result.lower_bound
